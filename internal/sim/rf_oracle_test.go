package sim

import (
	"sort"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
)

// The register-lifetime oracle. The reference core executes exec.Step, which
// reads and writes every register through simEnv.ReadReg / WriteReg, one
// lane at a time in exec.Step's read → effect → write order; nothing in that
// path knows which operand an instruction names or whether a SEL picked it.
// liveOracle folds that per-access stream into live intervals with the
// injection hook's semantics, which is what flow.Recorder derives from the
// schedule trace alone — so the two must agree site for site. It exists in
// this package's test binary only: rfOracle is assigned by traceOracle, and
// only the reference core's accessors read it.

// rfOracle, when set, receives every register access of the reference core.
var rfOracle *liveOracle

// access is one register access of the instruction executing now.
type access struct {
	sm, phys int
	write    bool
}

// oracleIv marks injections at cycles c with lo < c <= hi as observable.
type oracleIv struct{ lo, hi int64 }

// oracleReg is one physical register's recording state: the cycle of its
// most recent event and its live intervals so far.
type oracleReg struct {
	last int64
	ivs  []oracleIv
}

// oracleSpan is one CTA's register block with its visibility window
// (release = -1 while open).
type oracleSpan struct {
	sm, base, size int
	alloc, release int64
}

// liveOracle is the record. It is also the run's SchedTracer, for CTA
// placement and retirement (the register block's visibility window) and for
// the end of each instruction: accesses are buffered until the instruction
// issues, so a faulting instruction — which never issues — leaves nothing
// behind, as it leaves nothing in the schedule trace.
type liveOracle struct {
	regs    [][]oracleReg // [sm][phys]
	spans   []oracleSpan  // placement order
	byCTA   map[int]int   // schedule id → index into spans
	pending []access
	End     int64 // cycle of the last event: a run that stops early reports 0 cycles
}

func newLiveOracle(cfg gpu.Config) *liveOracle {
	o := &liveOracle{regs: make([][]oracleReg, cfg.NumSMs), byCTA: map[int]int{}}
	for i := range o.regs {
		o.regs[i] = make([]oracleReg, cfg.RFRegsPerSM)
	}
	return o
}

// traceOracle runs job on the reference core with the oracle listening.
func traceOracle(job *device.Job, cfg gpu.Config, maxCycles int64) (*liveOracle, *Result) {
	o := newLiveOracle(cfg)
	rfOracle = o
	defer func() { rfOracle = nil }()
	var res *Result
	onReference(func() { res = Run(job, cfg, Options{MaxCycles: maxCycles, SchedTrace: o}) })
	return o, res
}

func (o *liveOracle) access(sm, phys int, write bool) {
	o.pending = append(o.pending, access{sm, phys, write})
}

// OnCTAPlace opens the block's visibility window; allocation kills any
// leftover value of a previous CTA.
func (o *liveOracle) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	o.End = cycle
	if rfSize == 0 {
		return
	}
	o.byCTA[cta] = len(o.spans)
	o.spans = append(o.spans, oracleSpan{sm: sm, base: rfBase, size: rfSize, alloc: cycle, release: -1})
	for i := rfBase; i < rfBase+rfSize; i++ {
		o.regs[sm][i].last = cycle
	}
}

// OnIssue applies the issued instruction's accesses in the order they were
// made: a write ends the previous value's exposure, a read exposes the
// stored value to every injection after the register's previous event.
func (o *liveOracle) OnIssue(cta, warp, pc int, mask, selA uint32, cycle int64) {
	o.End = cycle
	for _, a := range o.pending {
		r := &o.regs[a.sm][a.phys]
		switch {
		case a.write:
			r.last = cycle
		case cycle > r.last:
			if n := len(r.ivs); n > 0 && r.ivs[n-1].hi == r.last {
				r.ivs[n-1].hi = cycle
			} else {
				r.ivs = append(r.ivs, oracleIv{lo: r.last, hi: cycle})
			}
			r.last = cycle
		}
	}
	o.pending = o.pending[:0]
}

// OnCTARetire closes the block's visibility window; values die with it.
func (o *liveOracle) OnCTARetire(cta int, cycle int64) {
	o.End = cycle
	i, ok := o.byCTA[cta]
	if !ok {
		return
	}
	delete(o.byCTA, cta)
	sp := &o.spans[i]
	sp.release = cycle
	for j := sp.base; j < sp.base+sp.size; j++ {
		o.regs[sp.sm][j].last = cycle
	}
}

// Live reports whether a flip in (sm, phys) at the cycle reaches a read.
func (o *liveOracle) Live(sm, phys int, cycle int64) bool {
	ivs := o.regs[sm][phys].ivs
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].hi >= cycle })
	return i < len(ivs) && ivs[i].lo < cycle
}

// RFBlocksAt appends the register blocks an injection at the cycle would
// find allocated on the SM, in CTA placement order.
func (o *liveOracle) RFBlocksAt(sm int, cycle int64, dst []RFBlock) []RFBlock {
	for _, sp := range o.spans {
		if sp.sm == sm && sp.alloc < cycle && (sp.release < 0 || cycle <= sp.release) {
			dst = append(dst, RFBlock{Base: sp.base, Size: sp.size})
		}
	}
	return dst
}

// LiveCycles sums the lengths of every register's live intervals.
func (o *liveOracle) LiveCycles() int64 {
	var n int64
	for _, regs := range o.regs {
		for _, r := range regs {
			for _, v := range r.ivs {
				n += v.hi - v.lo
			}
		}
	}
	return n
}
