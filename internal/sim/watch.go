// Dead-site joins: a converging faulty run returns to golden the moment its
// corruption is provably dead, instead of waiting for an exact state match at
// the next snapshot-grid cycle. After a transient flip of a single cache data
// byte the injector arms a one-site watch on it (Machine.WatchCache);
// Options.Converge is the only switch. While the watch is live the byte is
// the run's only difference from golden. When it is overwritten, refilled or
// invalidated before anything reads it, the run's state equals golden's and
// it joins at the end of that cycle. When it may have been read, the watch
// turns off and the run falls back to grid joins. Register-file and
// shared-memory flips need no watch: the golden run's interval map records
// every access to those arrays, and the pruners classify a flip into a site
// that is overwritten or freed before it is read without running it.
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
	"gpurel/internal/mem"
)

// WatchCache arms the one-site watch on data byte off of line i of c, one of
// this machine's caches, which the caller has just flipped, and nothing
// else, in a transient fault. It does nothing unless the run probes for
// convergence (Options.Converge).
func (m *Machine) WatchCache(c *mem.Cache, i int, off uint32) {
	r := m.r
	if r == nil || r.opts.Converge == nil {
		return
	}
	r.watch = mem.WatchLive
	c.Watch(i, off, &r.watch)
}

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
