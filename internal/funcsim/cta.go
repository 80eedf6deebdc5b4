package funcsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
	"gpurel/internal/uop"
)

// The CTA executor: one loop for every kind of run. It executes the kernel's
// compiled µops (uop.Cached) over the CTA's own register, predicate and
// shared-memory arrays. Each instruction issues through
// uop.(*Program).Issue, the control half (stack normalisation, guard, BRA /
// EXIT / BAR) the cycle simulator runs too; a data µop goes through uop.Fns,
// the handler table shared with it, or through this package's handlers for
// the kinds that reach memory — a flat device.Memory here — or fault. What
// stays here besides is the injector's bookkeeping.

// ctaState is the one CTA in flight: its registers, predicates and shared
// memory, the warps' SIMT stacks, and what S2R and LDC read of the launch.
// It lives on the runner and is cleared, not reallocated, per CTA.
type ctaState struct {
	uop.CTA
	// f spans the whole CTA's registers (threads × stride) and predicate
	// bytes; RBase and TBase select the warp being stepped.
	f     uop.Frame
	smem  []byte
	warps []exec.Warp
}

// cleared returns s[:n] zeroed, reallocating only to grow.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ctaOracle is nil in every binary except this package's own test binary,
// where reference_test.go can point it at the reference executor (exec.Step
// over per-access register accessors) that runCTA is checked against.
// Nothing outside _test files assigns it.
var ctaOracle func(r *runner, l *device.Launch, cta int) error

// runCTA executes CTA number cta of the launch (replicas outermost, then
// grid y, then grid x) on the kernel's compiled µops. Warps run one after
// another, each until it exits or arrives at a barrier; when every live warp
// has arrived the barrier opens and they go round again.
func (r *runner) runCTA(l *device.Launch, cta int) error {
	if ctaOracle != nil {
		return ctaOracle(r, l, cta)
	}
	cp := uop.Cached(l.Kernel)
	threads, stride := l.ThreadsPerCTA(), l.Kernel.NumRegs
	perGrid := l.GridX * l.GridY
	c := &r.cta
	c.CTA = uop.CTA{Launch: l, Params: l.ParamsFor(cta / perGrid), X: cta % l.GridX, Y: cta % perGrid / l.GridX}
	c.f.CTA = &c.CTA
	c.f.Regs = cleared(c.f.Regs, threads*stride)
	c.f.Preds = cleared(c.f.Preds, threads)
	c.f.Stride = stride
	c.smem = cleared(c.smem, l.SmemBytes)
	nWarps := (threads + 31) / 32
	if cap(c.warps) < nWarps {
		c.warps = make([]exec.Warp, nWarps)
	}
	c.warps = c.warps[:nWarps]
	for w := range c.warps {
		c.warps[w].FullMask = uint32(uint64(1)<<min(threads-w*32, 32) - 1)
		c.warps[w].Reset()
	}
	if tr := r.opts.Trace; tr != nil {
		tr.OnCTAStart(l, r.res.DynInstrs)
		defer func() { tr.OnCTAEnd(r.res.DynInstrs) }()
	}
	kc := r.kernelCounts(l.Name())

	for live := nWarps; live > 0; {
		for w := range c.warps {
			wp := &c.warps[w]
			if wp.Done() {
				continue
			}
			c.f.TBase, c.f.RBase = w*32, w*32*stride
			if err := r.runWarp(wp, cp, kc); err != nil {
				return err
			}
			if wp.Done() {
				live--
			}
		}
		// Every warp still alive is now waiting at the barrier.
		for w := range c.warps {
			if wp := &c.warps[w]; !wp.Done() {
				wp.Advance()
			}
		}
	}
	return nil
}

// runWarp steps w until it exits or arrives at a barrier (nil) or faults.
func (r *runner) runWarp(w *exec.Warp, cp *uop.Program, kc *KernelCounts) error {
	f, res := &r.cta.f, r.res
	for {
		pc, mask, st := cp.Issue(w, f)
		n := int64(bits.OnesCount32(mask))
		switch st {
		case uop.BadPC:
			return &exec.ErrBadPC{PC: pc}
		case uop.Diverged:
			return exec.ErrBarrierDivergence
		case uop.Data:
			if err := r.data(cp, pc, mask, n); err != nil {
				return err
			}
			w.Advance()
		}

		res.DynInstrs += n
		kc.DynInstrs += n
		if r.opts.MaxDynInstrs > 0 && res.DynInstrs > r.opts.MaxDynInstrs {
			return errTimeout
		}
		if st == uop.Exited || st == uop.Barrier {
			return nil
		}
	}
}

// data executes one data µop for the lanes in mask (n of them) and does the
// injector's bookkeeping as arithmetic on the µop: a register-writing µop is
// n destination candidates (and n load candidates if it is a load), and its
// lanes read n × NSrc registers. A destination site inside this µop's span
// is served after the handler by flipping the bit in the register of the
// site's lane — what flipping the value on its way into the register did,
// because lanes own disjoint registers and a later lane that faults makes
// the run a DUE either way. A run that ends in Err leaves the counters
// wherever the faulting µop found them.
func (r *runner) data(cp *uop.Program, pc int32, mask uint32, n int64) error {
	res, f, u := r.res, &r.cta.f, &cp.Ops[pc]
	uses := n * int64(u.NSrc)
	if cp.Sel(pc) {
		uses = selUses(u, cp.Src.Code[pc].BImm, u.PicksA(f, mask), mask)
	}

	var err error
	if r.opts.Trace != nil || uint64(r.siteUse-res.UseCands) < uint64(uses) {
		err = r.laneByLane(u, &cp.Src.Code[pc], mask)
	} else if fn := uop.Fns[u.Kind]; fn != nil { // r.exec, spelled out: it is too big to inline
		fn(f, u, mask)
	} else if fn := envFns[u.Kind]; fn != nil {
		err = fn(r, f, u, mask)
	}
	if err != nil {
		return err
	}

	if u.WritesReg {
		if k := r.siteDst - res.DstCands; uint64(k) < uint64(n) {
			r.flipDst(u, mask, int(k))
		}
		res.DstCands += n
		if u.Load {
			if k := r.siteLoad - res.LoadCands; uint64(k) < uint64(n) {
				r.flipDst(u, mask, int(k))
			}
			res.LoadCands += n
		}
	}
	res.UseCands += uses
	return nil
}

// selUses counts the register reads of a SEL whose lanes in a, of mask,
// pick A: each lane reads only the side it picks, and RZ or an immediate on
// that side is no read.
func selUses(u *uop.Op, bimm bool, a, mask uint32) int64 {
	uses := 0
	if u.A >= 0 {
		uses += bits.OnesCount32(a)
	}
	if !bimm && u.B >= 0 {
		uses += bits.OnesCount32(mask &^ a)
	}
	return int64(uses)
}

// flipDst flips the injection bit in the destination register of the k-th
// (from 0) lane of mask.
func (r *runner) flipDst(u *uop.Op, mask uint32, k int) {
	for ; k > 0; k-- {
		mask &= mask - 1
	}
	f := &r.cta.f
	f.Regs[f.RBase+bits.TrailingZeros32(mask)*f.Stride+int(u.Dst)] ^= r.flip
}

// exec runs one data µop on a frame: the kinds that stay inside the frame
// through the table shared with the cycle simulator, the memory kinds and
// KBadOp through this package's own. A KDrop µop has neither: nothing to
// execute.
func (r *runner) exec(f *uop.Frame, u *uop.Op, mask uint32) error {
	if fn := uop.Fns[u.Kind]; fn != nil {
		fn(f, u, mask)
		return nil
	}
	if fn := envFns[u.Kind]; fn != nil {
		return fn(r, f, u, mask)
	}
	return nil
}

// Operand selectors; also each operand's slot in execFlipped's scratch registers.
const (
	opA = iota
	opB
	opC
	opDst
)

// The orders exec.Step reads register operands in, which is the order use
// candidates are numbered in: A, B, C as isa.Instr.SrcRegs lists them (an
// immediate B is not in the list), except that FFMA reads its addend first.
var (
	readsABC = []uint8{opA, opB, opC}
	readsAC  = []uint8{opA, opC}
	readsCAB = []uint8{opC, opA, opB}
)

// readOrder returns the operands ins reads, in order. RZ operands are in
// the list and are skipped by the caller.
func readOrder(ins *isa.Instr) []uint8 {
	var buf [3]isa.Reg
	n := len(ins.SrcRegs(buf[:0]))
	switch {
	case ins.Op == isa.OpFFMA:
		return readsCAB[:n]
	case ins.Op == isa.OpIMAD && n == 2:
		return readsAC
	}
	return readsABC[:n]
}

// operand returns the source-register field of u that sel names.
func operand(u *uop.Op, sel uint8) *int16 {
	switch sel {
	case opA:
		return &u.A
	case opB:
		return &u.B
	}
	return &u.C
}

// laneByLane executes one data µop a lane at a time through the same
// handlers, for the two kinds of run that look at single accesses: a traced
// run (every instruction) and an InjectUse run (the one instruction holding
// the site). Per lane it goes in exec.Step's order — the reads, then the
// effect, then the write — so a lane that faults has reported its reads but
// no write, and later lanes nothing. SEL reads only the side its predicate
// selects; a KDrop µop has no effect but its instruction still reads its
// operands and predicates.
func (r *runner) laneByLane(u *uop.Op, ins *isa.Instr, mask uint32) error {
	f := &r.cta.f
	tr := r.opts.Trace
	order := readOrder(ins)
	use := r.res.UseCands
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		t := f.TBase + lane
		if tr != nil {
			r.trace(EvLane, t, 0)
			for _, bit := range [...]uint8{u.GuardBit, u.SelBit} {
				if bit != 0 {
					r.trace(EvPredRead, t, uint32(bit))
				}
			}
		}
		read := order
		if ins.Op == isa.OpSEL {
			if u.SelectsA(f.Preds[t]) {
				read = order[:1]
			} else {
				read = order[1:]
			}
		}
		hit := -1 // the operand the use site falls on, if it is in this lane
		for _, sel := range read {
			reg := *operand(u, sel)
			if reg < 0 {
				continue
			}
			if tr != nil {
				r.trace(EvRead, t, uint32(lb+int(reg)))
			}
			if use == r.siteUse {
				hit = int(sel)
			}
			use++
		}
		if tr != nil {
			if u.CBit != 0 {
				r.trace(EvPredRead, t, uint32(u.CBit))
			}
			if k := memEvents[u.Kind]; k != EvLane {
				a := uop.Src(f.Regs, lb, u.A)
				if hit == opA {
					a ^= r.flip
				}
				r.trace(k, t, a+u.Imm)
			}
		}
		var err error
		if hit >= 0 {
			err = r.execFlipped(u, lane, lb, read, hit)
		} else {
			err = r.exec(f, u, 1<<lane)
		}
		if err != nil {
			return err
		}
		if tr != nil && u.WritesReg {
			r.trace(EvWrite, t, uint32(lb+int(u.Dst)))
		}
		if tr != nil && u.PDstBit != 0 {
			r.trace(EvPredWrite, t, uint32(u.PDstBit))
		}
	}
	return nil
}

// trace reports one access of thread t in the instruction being executed.
func (r *runner) trace(k EventKind, t int, i uint32) {
	r.opts.Trace.On(Event{Kind: k, Thread: t, Index: i, At: r.res.DynInstrs})
}

// memEvents is the event each memory kind reports with its address (EvLane,
// the zero value, for every other kind).
var memEvents = [uop.NumKinds]EventKind{
	uop.KLdg: EvLoad, uop.KLdt: EvLoad, uop.KStg: EvStore,
	uop.KLds: EvLoadShared, uop.KSts: EvStoreShared,
}

// execFlipped runs u for one lane with the injection bit flipped in the
// value one operand read sees and nowhere else: the lane's operands are
// copied into scratch registers, one slot per operand, so the flip reaches
// exactly that read even when the instruction names the register twice, and
// stored state is untouched. The handler runs on a stride-0 frame over the
// scratch with the real lane bit, so predicates, special registers and
// memory see the real thread; the destination is copied back.
func (r *runner) execFlipped(u *uop.Op, lane, lb int, read []uint8, hit int) error {
	f := &r.cta.f
	var scratch [4]uint32
	su := *u
	for _, sel := range read {
		if reg := operand(&su, sel); *reg >= 0 {
			scratch[sel] = f.Regs[lb+int(*reg)]
			*reg = int16(sel)
		}
	}
	scratch[hit] ^= r.flip
	if u.WritesReg {
		su.Dst = opDst
	}
	sf := uop.Frame{Regs: scratch[:], Preds: f.Preds, TBase: f.TBase, CTA: f.CTA}
	if err := r.exec(&sf, &su, 1<<lane); err != nil {
		return err
	}
	if u.WritesReg {
		f.Regs[lb+int(u.Dst)] = scratch[opDst]
	}
	return nil
}

// envFn executes one memory µop, or the out-of-ISA fault, for the lanes in
// mask, reading and writing registers through f. These are the kinds funcsim
// does not share with the cycle simulator: memory here is a flat
// device.Memory with no hierarchy and no timing.
type envFn func(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error

var envFns = [uop.NumKinds]envFn{
	uop.KLdg:   uLdg,
	uop.KLdt:   uLdg,
	uop.KStg:   uStg,
	uop.KLds:   uLds,
	uop.KSts:   uSts,
	uop.KBadOp: uBadOp,
}

// Loads into RZ keep their kind (they can fault) and check Dst.

func uLdg(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error {
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		a := uop.Src(f.Regs, lb, u.A) + u.Imm
		v, err := r.mem.Load4(a)
		if err != nil {
			return err
		}
		if r.foot != nil {
			r.foot.loads = addWord(r.foot.loads, a)
		}
		if u.Dst >= 0 {
			f.Regs[lb+int(u.Dst)] = v
		}
	}
	return nil
}

func uStg(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error {
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		a := uop.Src(f.Regs, lb, u.A) + u.Imm
		if err := r.mem.Store4(a, uop.Src(f.Regs, lb, u.B)); err != nil {
			return err
		}
		if r.foot != nil {
			r.foot.stores = addWord(r.foot.stores, a)
		}
	}
	return nil
}

// sharedWord returns the four bytes of shared memory at addr, or nil if the
// access is misaligned or out of bounds.
func (c *ctaState) sharedWord(addr uint32) []byte {
	if addr%4 != 0 || int(addr)+4 > len(c.smem) {
		return nil
	}
	return c.smem[addr : addr+4]
}

func uLds(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error {
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(f.Regs, lb, u.A) + u.Imm
		b := r.cta.sharedWord(addr)
		if b == nil {
			return fmt.Errorf("illegal shared memory read at 0x%x", addr)
		}
		if u.Dst >= 0 {
			f.Regs[lb+int(u.Dst)] = binary.LittleEndian.Uint32(b)
		}
	}
	return nil
}

func uSts(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error {
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(f.Regs, lb, u.A) + u.Imm
		b := r.cta.sharedWord(addr)
		if b == nil {
			return fmt.Errorf("illegal shared memory write at 0x%x", addr)
		}
		binary.LittleEndian.PutUint32(b, uop.Src(f.Regs, lb, u.B))
	}
	return nil
}

// uBadOp faults as soon as one lane executes it; with every lane guarded
// off it is a no-op and the PC advances, as in exec.Step.
func uBadOp(r *runner, f *uop.Frame, u *uop.Op, mask uint32) error {
	if mask == 0 {
		return nil
	}
	return exec.ErrUnimplemented(isa.Op(u.Imm))
}
