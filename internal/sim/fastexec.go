// The simulator's own µop handlers: the six kinds that reach memory through
// the cache hierarchy, or fault. cycleSM issues every instruction through
// uop.(*Program).Issue, the control half (normalise, guard, BRA / EXIT / BAR)
// the functional simulator runs too, and executes a data µop through
// uop.Fns, the table shared with it, or through envFns below. Both follow
// exec.Step bit for bit — same stack normalization, same guard evaluation,
// same lane order (ascending, so coalescing and mid-instruction fault aborts
// are identical) — but on uop.Program records instead of re-decoding
// isa.Instr every warp-cycle.
//
// Every run executes here, traced or not, and every data µop issues for all
// its lanes at once. exec.Step itself runs in test binaries only: from this
// package's tests it drives the reference core the µop core is checked
// against (reference_test.go), whose per-access register stream is also the
// oracle for the register lifetimes a schedule trace records.
package sim

import (
	"gpurel/internal/exec"
	"gpurel/internal/isa"
	"gpurel/internal/uop"
)

// envFn executes one memory µop, or the out-of-ISA fault, for the lanes in
// mask. Every other data kind is uop.Fns, shared with the functional
// simulator; these stay here because memory (cache hierarchy, coalescing,
// latency) is this simulator's own.
type envFn func(e *simEnv, u *uop.Op, mask uint32) error

var envFns = [uop.NumKinds]envFn{
	uop.KLdg:   uLdg,
	uop.KLdt:   uLdt,
	uop.KStg:   uStg,
	uop.KLds:   uLds,
	uop.KSts:   uSts,
	uop.KBadOp: uBadOp,
}

// Loads into RZ keep their kind (they can fault) and check Dst.

func uLdg(e *simEnv, u *uop.Op, mask uint32) error {
	return uLoadGlobal(e, u, mask, false)
}

func uLdt(e *simEnv, u *uop.Op, mask uint32) error {
	return uLoadGlobal(e, u, mask, true)
}

func uLoadGlobal(e *simEnv, u *uop.Op, mask uint32, tex bool) error {
	rf := e.f.Regs
	for lane, lb, m := 0, e.f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+e.f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(rf, lb, u.A) + u.Imm
		v, err := e.LoadGlobal(lane, addr, tex)
		if err != nil {
			return err
		}
		if u.Dst >= 0 {
			rf[lb+int(u.Dst)] = v
		}
	}
	return nil
}

func uStg(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.f.Regs
	for lane, lb, m := 0, e.f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+e.f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(rf, lb, u.A) + u.Imm
		if err := e.StoreGlobal(lane, addr, uop.Src(rf, lb, u.B)); err != nil {
			return err
		}
	}
	return nil
}

func uLds(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.f.Regs
	for lane, lb, m := 0, e.f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+e.f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(rf, lb, u.A) + u.Imm
		v, err := e.LoadShared(lane, addr)
		if err != nil {
			return err
		}
		if u.Dst >= 0 {
			rf[lb+int(u.Dst)] = v
		}
	}
	return nil
}

func uSts(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.f.Regs
	for lane, lb, m := 0, e.f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+e.f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := uop.Src(rf, lb, u.A) + u.Imm
		if err := e.StoreShared(lane, addr, uop.Src(rf, lb, u.B)); err != nil {
			return err
		}
	}
	return nil
}

// uBadOp faults as soon as one lane executes it; with every lane guarded
// off it is a no-op and the PC advances, as in exec.Step.
func uBadOp(e *simEnv, u *uop.Op, mask uint32) error {
	if mask == 0 {
		return nil
	}
	return exec.ErrUnimplemented(isa.Op(u.Imm))
}
