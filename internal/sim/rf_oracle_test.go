package sim

import (
	"sort"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
)

// The storage-lifetime oracle. The reference core executes exec.Step, which
// reads and writes every register through simEnv.ReadReg / WriteReg, one
// lane at a time in exec.Step's read → effect → write order, and reaches
// shared memory through its Env's LoadShared / StoreShared; nothing in that
// path knows which operand an instruction names, whether a SEL picked it or
// which word an address register holds. liveOracle folds that per-access
// stream into live intervals with the injection hook's semantics, which is
// what flow.Recorder derives from the schedule trace — so the two must agree
// site for site. It exists in this package's test binary only: lifeOracle
// is assigned by traceOracle, and only the reference core's accessors read
// it.

// lifeOracle, when set, receives every register and shared-memory access of
// the reference core.
var lifeOracle *liveOracle

// access is one register access of the instruction executing now.
type access struct {
	sm, phys int
	write    bool
}

// oracleIv marks injections at cycles c with lo < c <= hi as observable.
type oracleIv struct{ lo, hi int64 }

// oracleSite is one register's or shared-memory byte's recording state: the
// cycle of its most recent event and its live intervals so far.
type oracleSite struct {
	last int64
	ivs  []oracleIv
}

// note applies one access at the cycle: a write ends the previous value's
// exposure, a read exposes the stored value to every injection after the
// site's previous event.
func (s *oracleSite) note(write bool, cycle int64) {
	switch {
	case write:
		s.last = cycle
	case cycle > s.last:
		if n := len(s.ivs); n > 0 && s.ivs[n-1].hi == s.last {
			s.ivs[n-1].hi = cycle
		} else {
			s.ivs = append(s.ivs, oracleIv{lo: s.last, hi: cycle})
		}
		s.last = cycle
	}
}

// live reports whether a flip at the cycle reaches a read.
func (s *oracleSite) live(cycle int64) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].hi >= cycle })
	return i < len(s.ivs) && s.ivs[i].lo < cycle
}

// oracleSpan is one CTA's register or shared-memory block with its
// visibility window (release = -1 while open).
type oracleSpan struct {
	sm, base, size int
	alloc, release int64
}

// oracleArray is one storage array of every SM: its sites and the blocks
// CTAs were given, in placement order.
type oracleArray struct {
	sites [][]oracleSite // [sm][index]
	spans []oracleSpan
}

func newOracleArray(sms, size int) oracleArray {
	a := oracleArray{sites: make([][]oracleSite, sms)}
	for i := range a.sites {
		a.sites[i] = make([]oracleSite, size)
	}
	return a
}

// open opens a block's visibility window, killing any leftover value of a
// previous CTA, and returns its index (-1 for an empty block).
func (a *oracleArray) open(sm, base, size int, cycle int64) int {
	if size == 0 {
		return -1
	}
	a.spans = append(a.spans, oracleSpan{sm: sm, base: base, size: size, alloc: cycle, release: -1})
	for i := base; i < base+size; i++ {
		a.sites[sm][i].last = cycle
	}
	return len(a.spans) - 1
}

// close closes block i's window; its values die with it.
func (a *oracleArray) close(i int, cycle int64) {
	if i < 0 {
		return
	}
	sp := &a.spans[i]
	sp.release = cycle
	for j := sp.base; j < sp.base+sp.size; j++ {
		a.sites[sp.sm][j].last = cycle
	}
}

// blocksAt appends the blocks an injection at the cycle would find
// allocated on the SM, in CTA placement order.
func (a *oracleArray) blocksAt(sm int, cycle int64, dst []RFBlock) []RFBlock {
	for _, sp := range a.spans {
		if sp.sm == sm && sp.alloc < cycle && (sp.release < 0 || cycle <= sp.release) {
			dst = append(dst, RFBlock{Base: sp.base, Size: sp.size})
		}
	}
	return dst
}

// liveOracle is the record. It is also the run's SchedTracer, for CTA
// placement and retirement (the blocks' visibility windows) and for the end
// of each instruction: register accesses are buffered until the instruction
// issues, so a faulting instruction — which never issues — leaves nothing
// behind in the register file, as it leaves nothing in the schedule trace.
// Shared-memory accesses apply at once, as the simulator reports them.
type liveOracle struct {
	rf, smem oracleArray
	byCTA    map[int][2]int // schedule id → its rf and smem span indices
	pending  []access
	End      int64 // cycle of the last event: a run that stops early reports 0 cycles
}

func newLiveOracle(cfg gpu.Config) *liveOracle {
	return &liveOracle{
		rf:    newOracleArray(cfg.NumSMs, cfg.RFRegsPerSM),
		smem:  newOracleArray(cfg.NumSMs, cfg.SmemPerSM),
		byCTA: map[int][2]int{},
	}
}

// traceOracle runs job on the reference core with the oracle listening.
func traceOracle(job *device.Job, cfg gpu.Config, maxCycles int64) (*liveOracle, *Result) {
	o := newLiveOracle(cfg)
	lifeOracle = o
	defer func() { lifeOracle = nil }()
	var res *Result
	onReference(func() { res = Run(job, cfg, Options{MaxCycles: maxCycles, SchedTrace: o}) })
	return o, res
}

func (o *liveOracle) access(sm, phys int, write bool) {
	o.pending = append(o.pending, access{sm, phys, write})
}

// shared applies a 4-byte shared-memory access at physical byte idx of sm.
func (o *liveOracle) shared(sm, idx int, write bool, cycle int64) {
	o.End = cycle
	for b := idx; b < idx+4; b++ {
		o.smem.sites[sm][b].note(write, cycle)
	}
}

// OnCTAPlace opens the CTA's blocks.
func (o *liveOracle) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	o.End = cycle
	o.byCTA[cta] = [2]int{o.rf.open(sm, rfBase, rfSize, cycle), o.smem.open(sm, smBase, smSize, cycle)}
}

// OnIssue applies the issued instruction's register accesses in the order
// they were made.
func (o *liveOracle) OnIssue(cta, warp, pc int, mask, selA uint32, cycle int64) {
	o.End = cycle
	for _, a := range o.pending {
		o.rf.sites[a.sm][a.phys].note(a.write, cycle)
	}
	o.pending = o.pending[:0]
}

// OnShared ignores the µop core's view of shared memory: the oracle takes
// it from exec.Step's accesses (oracleEnv).
func (o *liveOracle) OnShared(cta, word int, store bool, cycle int64) {}

// OnCTARetire closes the CTA's blocks.
func (o *liveOracle) OnCTARetire(cta int, cycle int64) {
	o.End = cycle
	i, ok := o.byCTA[cta]
	if !ok {
		return
	}
	delete(o.byCTA, cta)
	o.rf.close(i[0], cycle)
	o.smem.close(i[1], cycle)
}

// Live reports whether a flip in register (sm, phys) at the cycle reaches a
// read.
func (o *liveOracle) Live(sm, phys int, cycle int64) bool { return o.rf.sites[sm][phys].live(cycle) }

// LiveSmem reports whether a flip in shared-memory byte (sm, idx) at the
// cycle reaches a read.
func (o *liveOracle) LiveSmem(sm, idx int, cycle int64) bool {
	return o.smem.sites[sm][idx].live(cycle)
}

// RFBlocksAt appends the register blocks an injection at the cycle would
// find allocated on the SM, in CTA placement order.
func (o *liveOracle) RFBlocksAt(sm int, cycle int64, dst []RFBlock) []RFBlock {
	return o.rf.blocksAt(sm, cycle, dst)
}

// SmemBlocksAt is RFBlocksAt for shared memory, in bytes.
func (o *liveOracle) SmemBlocksAt(sm int, cycle int64, dst []RFBlock) []RFBlock {
	return o.smem.blocksAt(sm, cycle, dst)
}

// LiveCycles sums the lengths of every register's live intervals.
func (o *liveOracle) LiveCycles() int64 {
	var n int64
	for _, regs := range o.rf.sites {
		for _, r := range regs {
			for _, v := range r.ivs {
				n += v.hi - v.lo
			}
		}
	}
	return n
}

// oracleEnv is the reference core's exec.Env while an oracle listens:
// every shared-memory access exec.Step makes that succeeds reaches the
// lifetime oracle with the physical bytes it touched, and every global
// access reaches the cache oracle (cache_oracle_test.go).
type oracleEnv struct{ *simEnv }

func (e oracleEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	v, err := e.simEnv.LoadShared(lane, addr)
	if err == nil && lifeOracle != nil {
		lifeOracle.shared(e.sm.ID, e.cta.smBase+int(addr), false, e.r.cycle)
	}
	return v, err
}

func (e oracleEnv) StoreShared(lane int, addr uint32, v uint32) error {
	err := e.simEnv.StoreShared(lane, addr, v)
	if err == nil && lifeOracle != nil {
		lifeOracle.shared(e.sm.ID, e.cta.smBase+int(addr), true, e.r.cycle)
	}
	return err
}
