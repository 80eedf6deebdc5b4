package flow

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gpurel/internal/isa"
	"gpurel/internal/live"
)

// This file is the cycle-interval ACE engine, the repository's one record of
// register lifetime: it turns the deterministic scheduler's execution order
// into per-physical-register and per-shared-memory-word dead/live intervals
// (the live package's record, one site per register or word), from which
// liveness pruning, ACE AVF (ace.AnalyzeRF) and static AVF bounds are all
// derived.
//
// The Recorder implements sim.SchedTracer structurally (the signatures use
// only basic types and *isa.Program), so flow stays decoupled from sim. Per
// issued instruction it applies the instruction's register effects —
// source registers read, destination killed — to the lanes of the
// post-predication active mask, which makes the intervals reconvergence-
// and predication-aware: a lane outside the mask executed nothing and gets
// no events. A SEL lane reads only the operand its predicate picked, which
// the trace reports per lane. Shared memory is tracked per word from the
// accesses themselves: the simulator reports every LDS and STS lane with
// its word, in execution order, so a load exposes exactly the word it read
// and a store kills exactly the word it overwrote. The map is therefore
// exact on both arrays: site for site it equals the liveness of the
// reference core's per-access register and shared-memory streams (the
// oracle in internal/sim's tests).
//
// Interval semantics match the injector's hook position: a value's live
// interval (Lo, Hi] marks injection cycles c with Lo < c <= Hi as
// observable; everything outside every live interval of an allocated site is
// provably dead — the corrupted value is overwritten or deallocated before
// anything reads it. Allocation kills leftover values of the previous
// occupant, which is sound only for jobs that never consume uninitialized
// state: the simulator's guard (sim.Result.FreeDead) establishes that for a
// golden run — InitClean for every program's registers, and no LDS of a
// shared-memory word its CTA has not stored — and the pruners in
// internal/microfi simulate every run when it fails.

// Recorder accumulates scheduled-trace events. Create with NewRecorder,
// pass as sim.Options.SchedTrace on a fault-free run, then call Finalize.
type Recorder struct {
	effects map[*isa.Program]*progEffects
	ctas    map[int]*ctaRec
	sms     []*smRecord
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		effects: map[*isa.Program]*progEffects{},
		ctas:    map[int]*ctaRec{},
	}
}

// Blk is a contiguous allocated region of a storage array (registers or
// shared-memory bytes), mirroring sim.RFBlock.
type Blk struct{ Base, Size int }

// span is one CTA's allocated region with its visibility window
// (release = -1 while open).
type span struct {
	base, size     int
	alloc, release int64
}

// holds reports whether an injection at cycle finds the span allocated.
func (sp span) holds(cycle int64) bool {
	return sp.alloc < cycle && (sp.release < 0 || cycle <= sp.release)
}

// smemWords is one CTA's shared-memory block: one track per word, sealed
// once the CTA retires or the recording ends.
type smemWords struct {
	words []live.Track // nil once sealed
	sites live.Sites
}

func (w *smemWords) seal() {
	if w.words != nil {
		w.sites, w.words = live.Encode(w.words), nil
	}
}

// smRecord is the per-SM recording state.
type smRecord struct {
	regs    []live.Track // per physical register; nil once finalized
	rf      live.Sites   // regs, finalized
	rfSpans []span       // CTA placement order
	smSpans []span       // CTA placement order
	smem    []smemWords  // smSpans' words, index for index
}

// ctaRec is one resident CTA's placement, keyed by the tracer's CTA id.
type ctaRec struct {
	sm, rfBase, smBase, threads int
	eff                         *progEffects
	rfSpan                      int // index into sms[sm].rfSpans, -1 if rfSize == 0
	smSpan                      int // index into sms[sm].smSpans and smem, -1 if smSize == 0
}

// pcEffect is the register effect of one instruction: registers read and
// register killed. A SEL's operands are held apart
// from reads, as selA and selB, because a lane reads only the one its
// predicate picks; RZ stands for an operand that is no register read (RZ
// itself or an immediate B).
type pcEffect struct {
	reads   []isa.Reg
	sel     bool
	selA    isa.Reg
	selB    isa.Reg
	kill    isa.Reg
	hasKill bool
}

type progEffects struct {
	numRegs int
	pcs     []pcEffect
}

func (r *Recorder) effectsOf(p *isa.Program) *progEffects {
	if e, ok := r.effects[p]; ok {
		return e
	}
	e := &progEffects{numRegs: p.NumRegs, pcs: make([]pcEffect, len(p.Code))}
	reg := func(r isa.Reg) isa.Reg {
		if int(r) < p.NumRegs {
			return r
		}
		return isa.RZ
	}
	var srcs []isa.Reg
	for pc := range p.Code {
		ins := &p.Code[pc]
		pe := &e.pcs[pc]
		if ins.Op == isa.OpSEL {
			pe.sel, pe.selA, pe.selB = true, reg(ins.SrcA), reg(ins.SrcB)
			if ins.BImm {
				pe.selB = isa.RZ
			}
		} else {
			srcs = ins.SrcRegs(srcs[:0])
			for _, s := range srcs {
				if s = reg(s); s != isa.RZ {
					pe.reads = append(pe.reads, s)
				}
			}
		}
		if ins.Writing() && int(ins.Dst) < p.NumRegs {
			pe.kill, pe.hasKill = ins.Dst, true
		}
	}
	r.effects[p] = e
	return e
}

func (r *Recorder) sm(id int) *smRecord {
	for len(r.sms) <= id {
		r.sms = append(r.sms, &smRecord{})
	}
	return r.sms[id]
}

// OnCTAPlace implements the sim.SchedTracer shape.
func (r *Recorder) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	s := r.sm(sm)
	rec := &ctaRec{sm: sm, rfBase: rfBase, smBase: smBase, threads: threads, eff: r.effectsOf(prog), rfSpan: -1, smSpan: -1}
	if rfSize > 0 {
		for len(s.regs) < rfBase+rfSize {
			s.regs = append(s.regs, live.Track{})
		}
		rec.rfSpan = len(s.rfSpans)
		s.rfSpans = append(s.rfSpans, span{base: rfBase, size: rfSize, alloc: cycle, release: -1})
		// Allocation kills leftover values of the previous occupant (sound
		// under the golden run's guard, see the top of this file).
		for i := rfBase; i < rfBase+rfSize; i++ {
			s.regs[i].Kill(cycle)
		}
	}
	if smSize > 0 {
		words := make([]live.Track, smSize/4)
		for i := range words {
			words[i].Kill(cycle)
		}
		rec.smSpan = len(s.smSpans)
		s.smSpans = append(s.smSpans, span{base: smBase, size: smSize, alloc: cycle, release: -1})
		s.smem = append(s.smem, smemWords{words: words})
	}
	r.ctas[cta] = rec
}

// OnIssue implements the sim.SchedTracer shape: it applies pc's effects to
// every lane of the active mask, a SEL's read to the operand selA says the
// lane picked.
func (r *Recorder) OnIssue(cta, warp, pc int, mask, selA uint32, cycle int64) {
	rec := r.ctas[cta]
	if rec == nil || pc < 0 || pc >= len(rec.eff.pcs) {
		return
	}
	pe := &rec.eff.pcs[pc]
	if len(pe.reads) == 0 && !pe.sel && !pe.hasKill {
		return
	}
	s := r.sms[rec.sm]
	numRegs := rec.eff.numRegs
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		base := rec.rfBase + (warp*32+lane)*numRegs
		for _, reg := range pe.reads {
			s.regs[base+int(reg)].Read(cycle)
		}
		if pe.sel {
			picked := pe.selB
			if selA&(1<<lane) != 0 {
				picked = pe.selA
			}
			if picked != isa.RZ {
				s.regs[base+int(picked)].Read(cycle)
			}
		}
		if pe.hasKill {
			s.regs[base+int(pe.kill)].Kill(cycle)
		}
	}
}

// OnShared implements the sim.SchedTracer shape: a load exposes the word's
// stored value, a store kills it.
func (r *Recorder) OnShared(cta, word int, store bool, cycle int64) {
	rec := r.ctas[cta]
	if rec == nil {
		return
	}
	if t := &r.sms[rec.sm].smem[rec.smSpan].words[word]; store {
		t.Kill(cycle)
	} else {
		t.Read(cycle)
	}
}

// OnCTARetire implements the sim.SchedTracer shape: values die with the
// CTA's allocations.
func (r *Recorder) OnCTARetire(cta int, cycle int64) {
	rec := r.ctas[cta]
	if rec == nil {
		return
	}
	s := r.sms[rec.sm]
	if rec.rfSpan >= 0 {
		sp := &s.rfSpans[rec.rfSpan]
		sp.release = cycle
		for i := sp.base; i < sp.base+sp.size; i++ {
			s.regs[i].Kill(cycle)
		}
	}
	if rec.smSpan >= 0 {
		s.smSpans[rec.smSpan].release = cycle
		s.smem[rec.smSpan].seal()
	}
	delete(r.ctas, cta)
}

// Intervals is the finalized interval map of one traced run.
type Intervals struct {
	sms    []*smRecord
	Cycles int64 // traced run length
}

// Finalize freezes the recording into a queryable interval map; the
// Recorder records nothing more after it. cycles is the traced run's total
// cycle count.
func (r *Recorder) Finalize(cycles int64) *Intervals {
	for _, s := range r.sms {
		s.rf, s.regs = live.Encode(s.regs), nil
		for i := range s.smem {
			s.smem[i].seal()
		}
	}
	return &Intervals{sms: r.sms, Cycles: cycles}
}

// NumSMs returns the number of SMs the trace touched.
func (iv *Intervals) NumSMs() int { return len(iv.sms) }

// LiveRF reports whether an injection into physical register (sm, phys) at
// the cycle can reach a future read — false means provably dead.
func (iv *Intervals) LiveRF(sm, phys int, cycle int64) bool {
	if sm >= len(iv.sms) || phys >= iv.sms[sm].rf.Len() {
		return false
	}
	return iv.sms[sm].rf.Live(phys, cycle)
}

// RFLiveCycles sums the lengths of every register's live intervals: the
// register-cycles in which a flip would reach a read. For values written
// before they are read that is the classical ACE register-cycle count, from
// each write to its value's last read.
func (iv *Intervals) RFLiveCycles() int64 {
	var n int64
	for _, s := range iv.sms {
		n += s.rf.LiveCycles(math.MinInt64, math.MaxInt64)
	}
	return n
}

// LiveSmem reports whether an injection into shared-memory byte (sm, idx)
// at the cycle can reach a future read — false means provably dead. Shared
// memory is accessed in aligned words, so a byte is live exactly when its
// word is.
func (iv *Intervals) LiveSmem(sm, idx int, cycle int64) bool {
	if sm >= len(iv.sms) {
		return false
	}
	s := iv.sms[sm]
	for i, sp := range s.smSpans {
		if idx < sp.base || idx >= sp.base+sp.size || !sp.holds(cycle) {
			continue
		}
		w := (idx - sp.base) / 4
		return w < s.smem[i].sites.Len() && s.smem[i].sites.Live(w, cycle)
	}
	return false
}

// RFBlocksAt appends the register blocks an injection at cycle would find
// allocated on the SM, in CTA placement order — bit-compatible with the
// simulator's AllocatedRF enumeration.
func (iv *Intervals) RFBlocksAt(sm int, cycle int64, dst []Blk) []Blk {
	if sm >= len(iv.sms) {
		return dst
	}
	return blocksAt(iv.sms[sm].rfSpans, cycle, dst)
}

// SmemBlocksAt is RFBlocksAt for the shared-memory allocation timeline
// (sizes in bytes), bit-compatible with AllocatedSmem.
func (iv *Intervals) SmemBlocksAt(sm int, cycle int64, dst []Blk) []Blk {
	if sm >= len(iv.sms) {
		return dst
	}
	return blocksAt(iv.sms[sm].smSpans, cycle, dst)
}

func blocksAt(spans []span, cycle int64, dst []Blk) []Blk {
	for _, sp := range spans {
		if sp.holds(cycle) {
			dst = append(dst, Blk{Base: sp.base, Size: sp.size})
		}
	}
	return dst
}

// Check validates the structural invariants of the interval map: every
// site record passes live.Sites.Check over the traced run, and allocation
// spans are in chronological placement order with sane visibility windows.
// It returns the first violation found, or nil. Fuzzing and property tests
// call this; a violation means the Recorder itself is broken, not the
// traced program. A map finalized without a run length (Cycles <= 0)
// bounds no interval's end.
func (iv *Intervals) Check() error {
	end := iv.Cycles
	if end <= 0 {
		end = math.MaxInt64
	}
	checkSpan := func(sm int, what string, i int, sp span, prevAlloc int64) error {
		if sp.size <= 0 || sp.base < 0 {
			return fmt.Errorf("sm%d %s span %d: bad extent base=%d size=%d", sm, what, i, sp.base, sp.size)
		}
		if sp.release >= 0 && sp.release < sp.alloc {
			return fmt.Errorf("sm%d %s span %d: released at %d before allocation at %d", sm, what, i, sp.release, sp.alloc)
		}
		if sp.alloc < prevAlloc {
			return fmt.Errorf("sm%d %s span %d: allocation at %d precedes span %d's at %d", sm, what, i, sp.alloc, i-1, prevAlloc)
		}
		return nil
	}
	for smID, s := range iv.sms {
		if err := s.rf.Check(end); err != nil {
			return fmt.Errorf("sm%d registers: %w", smID, err)
		}
		prev := int64(-1)
		for i, sp := range s.rfSpans {
			if err := checkSpan(smID, "rf", i, sp, prev); err != nil {
				return err
			}
			prev = sp.alloc
		}
		prev = -1
		for i, sp := range s.smSpans {
			if err := checkSpan(smID, "smem", i, sp, prev); err != nil {
				return err
			}
			prev = sp.alloc
			if err := s.smem[i].sites.Check(end); err != nil {
				return fmt.Errorf("sm%d smem span %d, words from byte %d: %w", smID, i, sp.base, err)
			}
		}
	}
	return nil
}

// Window is a half-open injection-cycle range: cycles c with
// Start < c <= End (the sim.LaunchSpan convention).
type Window struct{ Start, End int64 }

// Bounds is a static AVF bracket for one structure. Lower <= AVF <= Upper
// for the AVF measured by uniform injection over the same windows.
// Supported is false for structures no static record covers (control
// state), where the trivial [0, 1] bracket is returned.
type Bounds struct {
	Supported bool
	Lower     float64
	Upper     float64
}

// delta is one step of a piecewise-constant function: at cycle c the
// allocated mass (alloc=true) or live mass (alloc=false) changes by v.
type delta struct {
	c     int64
	v     int64
	alloc bool
}

// RFBounds derives the static AVF bracket for the register file over the
// windows: Upper is the expected live fraction of allocated registers at a
// uniform injection cycle — every dead draw is provably Masked, so measured
// AVF cannot exceed it. The engine proves deadness, not ACE-ness (a live
// value may still be logically masked downstream), so Lower is 0.
func (iv *Intervals) RFBounds(ws []Window) Bounds {
	var ds []delta
	for _, s := range iv.sms {
		for _, sp := range s.rfSpans {
			ds = appendSpanDeltas(ds, sp)
		}
		ds = appendLiveDeltas(ds, &s.rf, 1)
	}
	return sweepBounds(ds, ws)
}

// SmemBounds is RFBounds for shared memory, in bytes: 4 live bytes per live
// word.
func (iv *Intervals) SmemBounds(ws []Window) Bounds {
	var ds []delta
	for _, s := range iv.sms {
		for i, sp := range s.smSpans {
			ds = appendSpanDeltas(ds, sp)
			ds = appendLiveDeltas(ds, &s.smem[i].sites, 4)
		}
	}
	return sweepBounds(ds, ws)
}

// appendSpanDeltas emits the allocation-mass steps of one span: +size for
// cycles > alloc, -size after release (visible through release inclusive).
func appendSpanDeltas(ds []delta, sp span) []delta {
	ds = append(ds, delta{sp.alloc + 1, int64(sp.size), true})
	if sp.release >= 0 {
		ds = append(ds, delta{sp.release + 1, -int64(sp.size), true})
	}
	return ds
}

// appendLiveDeltas emits the live-mass steps of every site's intervals,
// mass each.
func appendLiveDeltas(ds []delta, e *live.Sites, mass int64) []delta {
	var ivs []live.Iv
	for i := 0; i < e.Len(); i++ {
		ivs = e.Ivs(i, ivs[:0])
		for _, v := range ivs {
			ds = append(ds, delta{v.Lo + 1, mass, false}, delta{v.Hi + 1, -mass, false})
		}
	}
	return ds
}

// sweepBounds walks the merged event streams and integrates the live
// fraction of the allocated mass over the windows.
func sweepBounds(ds []delta, ws []Window) Bounds {
	var total int64
	for _, w := range ws {
		total += w.End - w.Start
	}
	if total <= 0 || len(ds) == 0 {
		return Bounds{Supported: true, Lower: 0, Upper: 0}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].c < ds[j].c })
	var sum float64 // Σ over window cycles of live/alloc
	var alloc, live int64
	prev := ds[0].c
	add := func(from, to int64) { // cycles [from, to)
		if to <= from || alloc <= 0 || live <= 0 {
			return
		}
		var overlap int64
		for _, w := range ws {
			lo, hi := from, to
			if lo < w.Start+1 {
				lo = w.Start + 1
			}
			if hi > w.End+1 {
				hi = w.End + 1
			}
			if hi > lo {
				overlap += hi - lo
			}
		}
		frac := float64(live) / float64(alloc)
		if frac > 1 {
			frac = 1
		}
		sum += float64(overlap) * frac
	}
	for i := 0; i < len(ds); {
		c := ds[i].c
		add(prev, c)
		prev = c
		for i < len(ds) && ds[i].c == c {
			if ds[i].alloc {
				alloc += ds[i].v
			} else {
				live += ds[i].v
			}
			i++
		}
	}
	// After the last event live mass is zero by construction; nothing to add.
	return Bounds{Supported: true, Lower: 0, Upper: sum / float64(total)}
}
