// Dead-site joins: a converging faulty run returns to golden the moment its
// corruption is provably dead, instead of waiting for an exact state match at
// the next snapshot-grid cycle. After a transient flip of a single entry (an
// RF word, an SMEM byte or a cache data byte) the injector arms a one-site
// watch on it (Machine.WatchRF/WatchSmem/WatchCache); Options.Converge is the
// only switch. While the watch is live the entry is the run's only
// difference from golden. When the entry is overwritten, refilled or
// invalidated before anything reads it, or its owning CTA retires under the
// guard below, the run's state equals golden's (up to storage nothing will
// read) and it joins at the end of that cycle. When the entry may have been
// read, the watch turns off and the run falls back to grid joins.
//
// The guard, "free storage is dead", holds iff every program the job launches
// is clean under flow.Lint's uninit-read rule and the fault-free run never
// executes an LDS of a shared-memory word its CTA has not stored since it was
// placed (Result.FreeDead). After a join the faulty run would replay golden's
// suffix, in which a location free at the join is written before any read
// once it is reallocated, so its stale value is never observed. Zeroing
// storage at retirement instead would change the model: a forced barrier or
// stack latch can make a warp read shared memory a previous CTA left behind.
package sim

import (
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/flow"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// siteWatch is a run's one-site watch. state is WatchOff while disarmed;
// rfCTA and smCTA are nil unless an RF or SMEM entry is watched, so the issue
// step and the shared-memory accessors pay one pointer compare for it. A
// watched cache byte is followed by the cache itself (mem.Cache.Watch), which
// reports into state.
type siteWatch struct {
	state mem.WatchState

	// RF: the owning CTA, and the warp, lane bit and register of the word.
	rfCTA  *ctaRT
	rfWarp int
	rfLane uint32
	rfReg  isa.Reg

	// SMEM: the owning CTA and the byte's index in the SM's array.
	smCTA *ctaRT
	smIdx int
}

// WatchRF arms the one-site watch on register-file word idx of sm, which the
// caller has just flipped, and nothing else, in a transient fault. It does
// nothing unless the run probes for convergence (Options.Converge), or when
// the word is not allocated.
func (m *Machine) WatchRF(sm *SM, idx int) {
	r := m.r
	if r == nil || r.opts.Converge == nil {
		return
	}
	for _, c := range sm.ctas {
		if off := idx - c.rfBase; off >= 0 && off < c.rfSize {
			t := off / c.prog.NumRegs
			r.watch = siteWatch{state: mem.WatchLive, rfCTA: c, rfWarp: t / 32, rfLane: 1 << (t % 32), rfReg: isa.Reg(off % c.prog.NumRegs)}
			return
		}
	}
}

// WatchSmem arms the one-site watch on shared-memory byte idx of sm, on the
// same terms as WatchRF.
func (m *Machine) WatchSmem(sm *SM, idx int) {
	r := m.r
	if r == nil || r.opts.Converge == nil {
		return
	}
	for _, c := range sm.ctas {
		if off := idx - c.smBase; off >= 0 && off < c.smSize {
			r.watch = siteWatch{state: mem.WatchLive, smCTA: c, smIdx: idx}
			c.smTrack = true
			return
		}
	}
}

// WatchCache arms the one-site watch on data byte off of line i of c, one of
// this machine's caches, on the same terms as WatchRF.
func (m *Machine) WatchCache(c *mem.Cache, i int, off uint32) {
	r := m.r
	if r == nil || r.opts.Converge == nil {
		return
	}
	r.watch = siteWatch{state: mem.WatchLive}
	c.Watch(i, off, &r.watch.state)
}

// settle records the RF/SMEM watch's verdict and disarms it.
func (r *runner) settle(v mem.WatchState) {
	if c := r.watch.smCTA; c != nil {
		c.smTrack = c.stored != nil
	}
	r.watch = siteWatch{state: v}
}

// noteIssue follows the watched register through one issue of warp w of cta.
// Both execution cores call it after every issue, so they join at the same
// cycle.
func (r *runner) noteIssue(cta *ctaRT, w int, info *exec.StepInfo) {
	if cta == r.watch.rfCTA && w == r.watch.rfWarp {
		r.watchRFIssue(info)
	}
}

// watchRFIssue settles the RF watch when the issue touched the watched lane's
// register: a read turns it off (a dropped µop still reads its operands),
// a write without a read makes it dead.
func (r *runner) watchRFIssue(info *exec.StepInfo) {
	ins := info.Instr
	if info.Kind == exec.StepFault || ins == nil || info.ActiveMask&r.watch.rfLane == 0 {
		return
	}
	var srcs [3]isa.Reg
	for _, s := range ins.SrcRegs(srcs[:0]) {
		if s == r.watch.rfReg {
			r.settle(mem.WatchOff)
			return
		}
	}
	if ins.Writing() && ins.Dst == r.watch.rfReg {
		r.settle(mem.WatchStored)
	}
}

// noteShared handles an LDS or STS of the word at CTA-relative addr by a CTA
// with smTrack set: a fault-free run records which words the CTA has stored
// and whether it loaded one it had not, and the SMEM watch settles when the
// access covers the watched byte.
func (r *runner) noteShared(c *ctaRT, addr uint32, store bool) {
	if c.stored != nil {
		w, bit := addr/4>>6, uint64(1)<<(addr/4&63)
		if store {
			c.stored[w] |= bit
		} else if c.stored[w]&bit == 0 {
			r.smemUninit = true
		}
	}
	if c == r.watch.smCTA && uint32(r.watch.smIdx-c.smBase)-addr < 4 {
		if store {
			r.settle(mem.WatchStored)
		} else {
			r.settle(mem.WatchOff)
		}
	}
}

// noteRetire settles an RF or SMEM watch whose owning CTA retires: the entry
// is now free storage, dead under the guard.
func (r *runner) noteRetire(c *ctaRT) {
	if c == r.watch.rfCTA || c == r.watch.smCTA {
		if r.freeDead {
			r.settle(mem.WatchFreed)
		} else {
			r.settle(mem.WatchOff)
		}
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
