// Pre-decoded µop interpreter: the simulator's execution core. It follows
// exec.Step bit for bit — same stack normalization, same guard evaluation,
// same lane order (ascending, so coalescing and mid-instruction fault aborts
// are identical) — but executes uop.Program records through handler tables
// instead of re-decoding isa.Instr every warp-cycle. This file holds the
// control half (normalise, guard, BRA / EXIT / BAR) and the eight handlers
// that reach outside the register file; the register-only kinds are
// uop.Fns, one table shared with the functional simulator.
//
// Every run executes here, traced or not, and every data µop issues for all
// its lanes at once. exec.Step itself runs in test binaries only: from this
// package's tests it drives the reference core the µop core is checked
// against (reference_test.go), whose per-access register stream is also the
// oracle for the register lifetimes a schedule trace records.
package sim

import (
	"math/bits"

	"gpurel/internal/exec"
	"gpurel/internal/isa"
	"gpurel/internal/uop"
)

// stepFast executes one instruction of w from the compiled program. It is
// the concrete counterpart of exec.Step; StepInfo still reports the
// architectural *isa.Instr for the schedule trace. The second return value
// is the executed µop (nil on a fault or an already-exited warp), from which
// cycleSM classifies latency and instruction mix.
func (r *runner) stepFast(w *exec.Warp, cp *uop.Program, e *simEnv) (exec.StepInfo, *uop.Op) {
	w.Normalize()
	if len(w.Stack) == 0 {
		if w.Done() {
			return exec.StepInfo{Kind: exec.StepExit}, nil
		}
		return exec.StepInfo{Kind: exec.StepFault, Fault: &exec.ErrBadPC{PC: -1}}, nil
	}
	top := &w.Stack[len(w.Stack)-1]
	pc := top.PC
	if pc < 0 || int(pc) >= len(cp.Ops) {
		return exec.StepInfo{Kind: exec.StepFault, Fault: &exec.ErrBadPC{PC: pc}}, nil
	}
	u := &cp.Ops[pc]
	effective := top.Mask &^ w.Exited

	execMask := effective
	if u.GuardBit != 0 {
		execMask = 0
		preds := e.f.Preds
		gb := u.GuardBit
		for lane, m := 0, effective; m != 0; lane, m = lane+1, m>>1 {
			if m&1 == 0 {
				continue
			}
			v := preds[e.f.TBase+lane]&gb != 0
			if u.GuardNeg {
				v = !v
			}
			if v {
				execMask |= uint32(1) << lane
			}
		}
	} else if u.GuardNeg {
		// "@!PT": constant-false guard, no lane executes.
		execMask = 0
	}

	info := exec.StepInfo{Kind: exec.StepOK, PC: pc, Instr: &cp.Src.Code[pc], ActiveMask: execMask}

	switch u.Kind {
	case uop.KBra:
		taken := execMask
		notTaken := effective &^ execMask
		switch {
		case taken == 0:
			top.PC = pc + 1
		case notTaken == 0:
			top.PC = u.Target
		default:
			top.PC = u.Reconv
			w.Stack = append(w.Stack,
				exec.Ent{Mask: notTaken, PC: pc + 1, RPC: u.Reconv},
				exec.Ent{Mask: taken, PC: u.Target, RPC: u.Reconv},
			)
		}
		return info, u

	case uop.KExit:
		w.Exited |= execMask
		top.PC = pc + 1
		w.Normalize()
		if w.Done() {
			info.Kind = exec.StepExit
		}
		return info, u

	case uop.KBar:
		if execMask != w.FullMask&^w.Exited {
			info.Kind = exec.StepFault
			info.Fault = exec.ErrBarrierDivergence
			return info, nil
		}
		info.Kind = exec.StepBarrier
		return info, u

	case uop.KNop, uop.KDrop:
		top.PC = pc + 1
		return info, u
	}

	var err error
	if fn := uop.Fns[u.Kind]; fn != nil {
		fn(&e.f, u, execMask)
	} else {
		err = envFns[u.Kind](e, u, execMask) // KDrop returned above
	}
	if err != nil {
		info.Kind = exec.StepFault
		info.Fault = err
		return info, nil
	}
	top.PC = pc + 1
	return info, u
}

// selPicksA returns the lanes of mask on which an issued SEL picked its A
// operand, for the schedule trace: a recorder needs it to know which of the
// two operands each lane read. It is 0 for every other instruction. A SEL
// into RZ lowers to KDrop but keeps its predicate, and still reads the
// operand it picks. preds holds the issuing warp's predicate bytes.
func selPicksA(u *uop.Op, ins *isa.Instr, preds []uint8, mask uint32) uint32 {
	if ins.Op != isa.OpSEL {
		return 0
	}
	var a uint32
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if u.SelectsA(preds[lane]) {
			a |= 1 << lane
		}
	}
	return a
}

// envFn executes one environment µop — one that reaches outside the register
// file — for the lanes in mask. The register-only kinds are uop.Fns, shared
// with the functional simulator; these eight stay here because special
// registers, parameters and above all memory (cache hierarchy, coalescing,
// latency) are this simulator's own.
type envFn func(e *simEnv, u *uop.Op, mask uint32) error

var envFns = [uop.NumKinds]envFn{
	uop.KS2R:   uS2R,
	uop.KLdc:   uLdc,
	uop.KLdg:   uLdg,
	uop.KLdt:   uLdt,
	uop.KStg:   uStg,
	uop.KLds:   uLds,
	uop.KSts:   uSts,
	uop.KBadOp: uBadOp,
}

// Compile lowers an S2R or LDC into RZ to KDrop, so both index Dst
// unchecked; loads keep their kind (they can fault) and check it.

func uS2R(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.f.Regs
	for lane, lb, m := 0, e.f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+e.f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = e.Special(lane, u.Special)
		}
	}
	return nil
}

func uLdc(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.f.Regs
	v := e.Param(int(u.Imm))
	for lb, m := e.f.RBase, mask; m != 0; lb, m = lb+e.f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = v
		}
	}
	return nil
}

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
