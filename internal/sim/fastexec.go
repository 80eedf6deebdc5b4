// Pre-decoded µop interpreter: the simulator's execution core. It follows
// exec.Step bit for bit — same stack normalization, same guard evaluation,
// same lane order (ascending, so coalescing and mid-instruction fault aborts
// are identical) — but executes uop.Program records through a compact
// handler table instead of re-decoding isa.Instr every warp-cycle. Scalar
// semantics (saturating F2I, comparisons, fused FFMA) are shared with
// exec.Step via exec's exported helpers so they are defined exactly once.
//
// Every run executes here. A run with Options.RFTrace set issues each data
// µop one lane at a time through the same handlers so the tracer sees the
// per-lane read → effect → write order exec.Step produces. exec.Step itself
// drives the functional simulator (internal/funcsim) and, from this
// package's tests only, the reference core the µop core is checked against
// (reference_test.go).
package sim

import (
	"math"

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
		preds := e.cta.preds
		gb := u.GuardBit
		for lane, m := 0, effective; m != 0; lane, m = lane+1, m>>1 {
			if m&1 == 0 {
				continue
			}
			v := preds[e.warpBase+lane]&gb != 0
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
		// A dropped op has no effect to execute, but its instruction still
		// reads its operands: a traced run reports those below.
		if u.Kind == uop.KNop || r.opts.RFTrace == nil {
			top.PC = pc + 1
			return info, u
		}
	}

	var err error
	if tr := r.opts.RFTrace; tr != nil {
		err = traceLanes(tr, r.cycle, e, u, info.Instr, execMask)
	} else {
		err = uopFns[u.Kind](e, u, execMask)
	}
	if err != nil {
		info.Kind = exec.StepFault
		info.Fault = err
		return info, nil
	}
	top.PC = pc + 1
	return info, u
}

// traceLanes executes one data µop for a traced run: one lane at a time
// through the ordinary handler, reporting around each lane the register
// reads and the write exec.Step performs for it — sources, then the effect,
// then the destination, so a lane that faults has reported its reads but no
// write and later lanes report nothing. The source list comes from the
// architectural instruction because a KDrop µop has no handler but its
// instruction still reads its operands; SEL reads only the operand its
// predicate selects.
func traceLanes(tr RFTracer, cycle int64, e *simEnv, u *uop.Op, ins *isa.Instr, mask uint32) error {
	var buf [3]isa.Reg
	srcs := ins.SrcRegs(buf[:0])
	fn := uopFns[u.Kind] // nil for KDrop
	writes := ins.Writing()
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		read := srcs
		if ins.Op == isa.OpSEL {
			v := u.SelBit == 0 || e.cta.preds[e.warpBase+lane]&u.SelBit != 0
			if v != u.SelNeg {
				read = srcs[:1]
			} else {
				read = srcs[1:]
			}
		}
		for _, s := range read {
			if s != isa.RZ {
				tr.OnRegRead(e.sm.ID, lb+int(s), cycle)
			}
		}
		if fn != nil {
			if err := fn(e, u, 1<<lane); err != nil {
				return err
			}
		}
		if writes {
			tr.OnRegWrite(e.sm.ID, lb+int(u.Dst), cycle)
		}
	}
	return nil
}

// uopFn executes one data µop for the lanes in mask. The simEnv carries the
// precomputed warp register base (rbase) and per-thread register stride
// (nregs), so handlers index the SM's register file directly.
type uopFn func(e *simEnv, u *uop.Op, mask uint32) error

var uopFns [uop.NumKinds]uopFn

func init() {
	uopFns[uop.KS2R] = uS2R
	uopFns[uop.KMov] = uMov
	uopFns[uop.KMovImm] = uMovImm
	uopFns[uop.KLdc] = uLdc
	uopFns[uop.KIAdd] = uIAdd
	uopFns[uop.KIAddImm] = uIAddImm
	uopFns[uop.KISub] = uISub
	uopFns[uop.KISubImm] = uISubImm
	uopFns[uop.KIMul] = uIMul
	uopFns[uop.KIMulImm] = uIMulImm
	uopFns[uop.KIMad] = uIMad
	uopFns[uop.KIMadImm] = uIMadImm
	uopFns[uop.KIScAdd] = uIScAdd
	uopFns[uop.KIMin] = uIMin
	uopFns[uop.KIMinImm] = uIMinImm
	uopFns[uop.KIMax] = uIMax
	uopFns[uop.KIMaxImm] = uIMaxImm
	uopFns[uop.KShl] = uShl
	uopFns[uop.KShlImm] = uShlImm
	uopFns[uop.KShr] = uShr
	uopFns[uop.KShrImm] = uShrImm
	uopFns[uop.KAnd] = uAnd
	uopFns[uop.KAndImm] = uAndImm
	uopFns[uop.KOr] = uOr
	uopFns[uop.KOrImm] = uOrImm
	uopFns[uop.KXor] = uXor
	uopFns[uop.KXorImm] = uXorImm
	uopFns[uop.KFAdd] = uFAdd
	uopFns[uop.KFAddImm] = uFAddImm
	uopFns[uop.KFSub] = uFSub
	uopFns[uop.KFSubImm] = uFSubImm
	uopFns[uop.KFMul] = uFMul
	uopFns[uop.KFMulImm] = uFMulImm
	uopFns[uop.KFFma] = uFFma
	uopFns[uop.KFFmaImm] = uFFmaImm
	uopFns[uop.KFMin] = uFMin
	uopFns[uop.KFMinImm] = uFMinImm
	uopFns[uop.KFMax] = uFMax
	uopFns[uop.KFMaxImm] = uFMaxImm
	uopFns[uop.KMufu] = uMufu
	uopFns[uop.KI2F] = uI2F
	uopFns[uop.KF2I] = uF2I
	uopFns[uop.KISetp] = uISetp
	uopFns[uop.KISetpImm] = uISetpImm
	uopFns[uop.KFSetp] = uFSetp
	uopFns[uop.KFSetpImm] = uFSetpImm
	uopFns[uop.KSel] = uSel
	uopFns[uop.KSelImm] = uSelImm
	uopFns[uop.KLdg] = uLdg
	uopFns[uop.KLdt] = uLdt
	uopFns[uop.KStg] = uStg
	uopFns[uop.KLds] = uLds
	uopFns[uop.KSts] = uSts
	uopFns[uop.KBadOp] = uBadOp
}

// src reads a resolved source operand: -1 is RZ.
func src(rf []uint32, lb int, r int16) uint32 {
	if r < 0 {
		return 0
	}
	return rf[lb+int(r)]
}

func fsrc(rf []uint32, lb int, r int16) float32 {
	return math.Float32frombits(src(rf, lb, r))
}

// Compile guarantees Dst >= 0 for every kind whose handler writes
// unconditionally (RZ destinations become KDrop), so handlers below index
// rf[lb+Dst] without a check. Loads check Dst themselves.

func uS2R(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = e.Special(lane, u.Special)
		}
	}
	return nil
}

func uMov(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A)
		}
	}
	return nil
}

func uMovImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = u.Imm
		}
	}
	return nil
}

func uLdc(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	v := e.Param(int(u.Imm))
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = v
		}
	}
	return nil
}

func uIAdd(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) + src(rf, lb, u.B)
		}
	}
	return nil
}

func uIAddImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) + u.Imm
		}
	}
	return nil
}

func uISub(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) - src(rf, lb, u.B)
		}
	}
	return nil
}

func uISubImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) - u.Imm
		}
	}
	return nil
}

func uIMul(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(src(rf, lb, u.A)) * int32(src(rf, lb, u.B)))
		}
	}
	return nil
}

func uIMulImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(src(rf, lb, u.A)) * int32(u.Imm))
		}
	}
	return nil
}

func uIMad(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(src(rf, lb, u.A))*int32(src(rf, lb, u.B)) + int32(src(rf, lb, u.C)))
		}
	}
	return nil
}

func uIMadImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(src(rf, lb, u.A))*int32(u.Imm) + int32(src(rf, lb, u.C)))
		}
	}
	return nil
}

func uIScAdd(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = (src(rf, lb, u.A) << u.Sh) + src(rf, lb, u.B)
		}
	}
	return nil
}

func uIMin(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(min(int32(src(rf, lb, u.A)), int32(src(rf, lb, u.B))))
		}
	}
	return nil
}

func uIMinImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(min(int32(src(rf, lb, u.A)), int32(u.Imm)))
		}
	}
	return nil
}

func uIMax(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(max(int32(src(rf, lb, u.A)), int32(src(rf, lb, u.B))))
		}
	}
	return nil
}

func uIMaxImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(max(int32(src(rf, lb, u.A)), int32(u.Imm)))
		}
	}
	return nil
}

func uShl(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) << (src(rf, lb, u.B) & 31)
		}
	}
	return nil
}

func uShlImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	sh := u.Imm & 31
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) << sh
		}
	}
	return nil
}

func uShr(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) >> (src(rf, lb, u.B) & 31)
		}
	}
	return nil
}

func uShrImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	sh := u.Imm & 31
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) >> sh
		}
	}
	return nil
}

func uAnd(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) & src(rf, lb, u.B)
		}
	}
	return nil
}

func uAndImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) & u.Imm
		}
	}
	return nil
}

func uOr(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) | src(rf, lb, u.B)
		}
	}
	return nil
}

func uOrImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) | u.Imm
		}
	}
	return nil
}

func uXor(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) ^ src(rf, lb, u.B)
		}
	}
	return nil
}

func uXorImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A) ^ u.Imm
		}
	}
	return nil
}

func uFAdd(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) + fsrc(rf, lb, u.B))
		}
	}
	return nil
}

func uFAddImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := math.Float32frombits(u.Imm)
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) + b)
		}
	}
	return nil
}

func uFSub(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) - fsrc(rf, lb, u.B))
		}
	}
	return nil
}

func uFSubImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := math.Float32frombits(u.Imm)
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) - b)
		}
	}
	return nil
}

func uFMul(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) * fsrc(rf, lb, u.B))
		}
	}
	return nil
}

func uFMulImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := math.Float32frombits(u.Imm)
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) * b)
		}
	}
	return nil
}

func uFFma(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			f := math.FMA(float64(fsrc(rf, lb, u.A)), float64(fsrc(rf, lb, u.B)), float64(fsrc(rf, lb, u.C)))
			rf[lb+int(u.Dst)] = math.Float32bits(float32(f))
		}
	}
	return nil
}

func uFFmaImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := float64(math.Float32frombits(u.Imm))
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			f := math.FMA(float64(fsrc(rf, lb, u.A)), b, float64(fsrc(rf, lb, u.C)))
			rf[lb+int(u.Dst)] = math.Float32bits(float32(f))
		}
	}
	return nil
}

// fminVal/fmaxVal reproduce exec.Step's NaN handling: the second operand
// wins only when it is ordered and beats the first.
func fminVal(a, b float32) float32 {
	if a < b || b != b {
		return a
	}
	return b
}

func fmaxVal(a, b float32) float32 {
	if a > b || b != b {
		return a
	}
	return b
}

func uFMin(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fminVal(fsrc(rf, lb, u.A), fsrc(rf, lb, u.B)))
		}
	}
	return nil
}

func uFMinImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := math.Float32frombits(u.Imm)
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fminVal(fsrc(rf, lb, u.A), b))
		}
	}
	return nil
}

func uFMax(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fmaxVal(fsrc(rf, lb, u.A), fsrc(rf, lb, u.B)))
		}
	}
	return nil
}

func uFMaxImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	b := math.Float32frombits(u.Imm)
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fmaxVal(fsrc(rf, lb, u.A), b))
		}
	}
	return nil
}

func uMufu(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		x := float64(fsrc(rf, lb, u.A))
		var y float64
		switch u.Mufu {
		case isa.MufuRCP:
			y = 1 / x
		case isa.MufuSQRT:
			y = math.Sqrt(x)
		case isa.MufuRSQ:
			y = 1 / math.Sqrt(x)
		case isa.MufuEX2:
			y = math.Exp2(x)
		case isa.MufuLG2:
			y = math.Log2(x)
		}
		rf[lb+int(u.Dst)] = math.Float32bits(float32(y))
	}
	return nil
}

func uI2F(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(float32(int32(src(rf, lb, u.A))))
		}
	}
	return nil
}

func uF2I(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lb, m := e.rbase, mask; m != 0; lb, m = lb+e.nregs, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(exec.F32I(fsrc(rf, lb, u.A)))
		}
	}
	return nil
}

// setp writes the combined comparison result into the thread's predicate
// byte. PDstBit != 0 is guaranteed by Compile (PT destinations drop).
func setp(preds []uint8, t int, u *uop.Op, r bool) {
	c := u.CBit == 0 || preds[t]&u.CBit != 0
	if u.CNeg {
		c = !c
	}
	if r && c {
		preds[t] |= u.PDstBit
	} else {
		preds[t] &^= u.PDstBit
	}
}

func uISetp(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 != 0 {
			r := exec.ICmp(u.Cmp, int32(src(rf, lb, u.A)), int32(src(rf, lb, u.B)))
			setp(preds, e.warpBase+lane, u, r)
		}
	}
	return nil
}

func uISetpImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	b := int32(u.Imm)
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 != 0 {
			r := exec.ICmp(u.Cmp, int32(src(rf, lb, u.A)), b)
			setp(preds, e.warpBase+lane, u, r)
		}
	}
	return nil
}

func uFSetp(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 != 0 {
			r := exec.FCmp(u.Cmp, fsrc(rf, lb, u.A), fsrc(rf, lb, u.B))
			setp(preds, e.warpBase+lane, u, r)
		}
	}
	return nil
}

func uFSetpImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	b := math.Float32frombits(u.Imm)
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 != 0 {
			r := exec.FCmp(u.Cmp, fsrc(rf, lb, u.A), b)
			setp(preds, e.warpBase+lane, u, r)
		}
	}
	return nil
}

func uSel(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		v := u.SelBit == 0 || preds[e.warpBase+lane]&u.SelBit != 0
		if u.SelNeg {
			v = !v
		}
		if v {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A)
		} else {
			rf[lb+int(u.Dst)] = src(rf, lb, u.B)
		}
	}
	return nil
}

func uSelImm(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	preds := e.cta.preds
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		v := u.SelBit == 0 || preds[e.warpBase+lane]&u.SelBit != 0
		if u.SelNeg {
			v = !v
		}
		if v {
			rf[lb+int(u.Dst)] = src(rf, lb, u.A)
		} else {
			rf[lb+int(u.Dst)] = u.Imm
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
	rf := e.sm.RF
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := src(rf, lb, u.A) + u.Imm
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
	rf := e.sm.RF
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := src(rf, lb, u.A) + u.Imm
		if err := e.StoreGlobal(lane, addr, src(rf, lb, u.B)); err != nil {
			return err
		}
	}
	return nil
}

func uLds(e *simEnv, u *uop.Op, mask uint32) error {
	rf := e.sm.RF
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := src(rf, lb, u.A) + u.Imm
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
	rf := e.sm.RF
	for lane, lb, m := 0, e.rbase, mask; m != 0; lane, lb, m = lane+1, lb+e.nregs, m>>1 {
		if m&1 == 0 {
			continue
		}
		addr := src(rf, lb, u.A) + u.Imm
		if err := e.StoreShared(lane, addr, src(rf, lb, u.B)); err != nil {
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
