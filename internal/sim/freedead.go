// The FreeDead guard. The golden run's interval map records every access
// to the register file and shared memory, and the pruners classify a flip
// into a site that is overwritten or freed before it is read without
// running it. Cache flips are decided from the golden run's cache data
// record (Options.Frames) and need no guard.
//
// The guard, "free storage is dead", holds iff every program the job launches
// is clean under flow.Lint's uninit-read rule and the fault-free run never
// executes an LDS of a shared-memory word its CTA has not stored since it was
// placed (Result.FreeDead). The interval map lets each allocation kill what
// the previous occupant left behind, which is sound only under the guard.
package sim

import (
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/isa"
)

// noteShared handles an LDS or STS of the word at CTA-relative addr by a CTA
// with smTrack set: a fault-free run records which words the CTA has stored
// and whether it loaded one it had not, and a traced run reports the access
// to its SchedTracer.
func (r *runner) noteShared(c *ctaRT, addr uint32, store bool) {
	if c.stored != nil {
		w, bit := addr/4>>6, uint64(1)<<(addr/4&63)
		if store {
			c.stored[w] |= bit
		} else if c.stored[w]&bit == 0 {
			r.smemUninit = true
		}
	}
	if tr := r.opts.SchedTrace; tr != nil {
		tr.OnShared(c.schedID, int(addr/4), store, r.cycle)
	}
}

// freeDeadVerdict is Result.FreeDead for a fault-free run that completed.
func (r *runner) freeDeadVerdict() bool {
	if !r.recordSmem || r.smemUninit {
		return false
	}
	for i := range r.job.Steps {
		if l := r.job.Steps[i].Launch; l != nil && !initClean(l.Kernel) {
			return false
		}
	}
	return true
}

// lintVerdicts memoizes initClean per program (programs are immutable and
// shared by every run of a job).
var lintVerdicts sync.Map

// initClean reports whether flow.Lint proves that p reads no register before
// writing it.
func initClean(p *isa.Program) bool {
	if v, ok := lintVerdicts.Load(p); ok {
		return v.(bool)
	}
	v, _ := lintVerdicts.LoadOrStore(p, flow.InitClean(p))
	return v.(bool)
}

// storedWords returns the stored-word bitset of a CTA of launch l placed by
// a recording (fault-free) run, or nil.
func (r *runner) storedWords(l *device.Launch) []uint64 {
	if !r.recordSmem || l.SmemBytes == 0 {
		return nil
	}
	return make([]uint64, ((l.SmemBytes+3)/4+63)/64)
}
