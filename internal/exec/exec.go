// Package exec holds what every executor of the ISA shares, and the ISA's
// independent statement.
//
// Shared, and linked into every binary: Warp, the SIMT reconvergence stack
// with its normalisation rule, the step outcome types and fault values, and
// the scalar helpers (saturating F2I, integer and float comparisons) that the
// µop handlers of internal/uop call so those corner cases are defined once.
//
// Independent, and reached by neither simulator outside its tests: Step, a
// plain decode-and-switch interpreter — one instruction for one warp, one lane at
// a time, every register, predicate and memory access through an Env. Both
// simulators execute compiled µops instead; Step is the oracle they are
// checked against (internal/sim/reference_test.go,
// internal/funcsim/reference_test.go), which is worth something only as long
// as it shares no opcode code with them: do not "deduplicate" execLane into
// the µop handlers. TestStepCallersOutsideTests keeps production code off it.
//
// Step is generic over the Env implementation. That does not devirtualise
// the accessor calls — Go stencils generics by GC shape, so a pointer Env
// goes through the dictionary — and is one reason the interpreter is slow.
package exec

import (
	"fmt"
	"math"

	"gpurel/internal/isa"
)

// Env supplies per-lane architectural state and the memory system. Lane
// indices are warp-relative (0..WarpSize-1).
type Env interface {
	ReadReg(lane int, r isa.Reg) uint32
	WriteReg(lane int, r isa.Reg, v uint32)
	ReadPred(lane int, p isa.Pred) bool
	WritePred(lane int, p isa.Pred, v bool)
	Special(lane int, s isa.SReg) uint32
	Param(idx int) uint32
	LoadGlobal(lane int, addr uint32, tex bool) (uint32, error)
	StoreGlobal(lane int, addr uint32, v uint32) error
	LoadShared(lane int, addr uint32) (uint32, error)
	StoreShared(lane int, addr uint32, v uint32) error
}

// Ent is one SIMT reconvergence stack entry: the lanes it controls, their
// current PC, and the reconvergence PC at which the entry pops.
type Ent struct {
	Mask uint32
	PC   int32
	RPC  int32
}

// Warp is the dynamic control-flow state of one warp.
type Warp struct {
	FullMask uint32 // lanes that exist in this warp (partial warps at grid edge)
	Exited   uint32 // lanes that executed EXIT
	Stack    []Ent
}

// NewWarp initialises a warp of numLanes threads starting at PC 0.
func NewWarp(numLanes int) *Warp {
	full := uint32(0xFFFFFFFF)
	if numLanes < 32 {
		full = (uint32(1) << numLanes) - 1
	}
	return &Warp{
		FullMask: full,
		Stack:    []Ent{{Mask: full, PC: 0, RPC: -1}},
	}
}

// Reset restores the warp to its initial state.
func (w *Warp) Reset() {
	w.Exited = 0
	w.Stack = w.Stack[:0]
	w.Stack = append(w.Stack, Ent{Mask: w.FullMask, PC: 0, RPC: -1})
}

// Done reports whether all lanes have exited.
func (w *Warp) Done() bool { return w.Exited == w.FullMask }

// Normalize pops entries that have reached their reconvergence point or
// whose lanes have all exited. Exported for uop.(*Program).Issue, the one
// control half both simulators run on compiled programs, which mirrors
// Step's control flow.
func (w *Warp) Normalize() { w.normalize() }

// normalize pops entries that have reached their reconvergence point or
// whose lanes have all exited.
func (w *Warp) normalize() {
	for len(w.Stack) > 0 {
		top := &w.Stack[len(w.Stack)-1]
		if top.Mask&^w.Exited == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		if top.RPC >= 0 && top.PC == top.RPC {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		return
	}
}

// StepKind classifies the result of executing one instruction.
type StepKind uint8

// Step outcomes.
const (
	StepOK      StepKind = iota
	StepExit             // the whole warp has exited
	StepBarrier          // the warp arrived at a barrier; caller releases it
	StepFault            // a DUE-class fault (illegal access, bad PC, ...)
)

// StepInfo reports what one Step executed.
type StepInfo struct {
	Kind       StepKind
	Fault      error
	PC         int32
	Instr      *isa.Instr
	ActiveMask uint32 // lanes that actually executed the instruction
}

// ErrBadPC is returned (wrapped) when control flow escapes the program.
type ErrBadPC struct{ PC int32 }

func (e *ErrBadPC) Error() string { return fmt.Sprintf("invalid PC %d", e.PC) }

// ErrBarrierDivergence is returned when a warp reaches BAR with some lanes
// inactive — undefined behaviour on real hardware, a DUE here.
var ErrBarrierDivergence = fmt.Errorf("barrier reached by diverged warp")

// Advance moves the warp past the instruction it stands on: a BAR it is
// blocked on, once its CTA's barrier logic sees every warp arrived, or a data
// µop its executor has run (uop.Data).
func (w *Warp) Advance() {
	w.Stack[len(w.Stack)-1].PC++
}

// PeekInstr normalises the stack and returns the instruction the next Step
// will execute, or nil if the warp is done or control flow is invalid.
func (w *Warp) PeekInstr(prog *isa.Program) *isa.Instr {
	w.normalize()
	if len(w.Stack) == 0 {
		return nil
	}
	pc := w.Stack[len(w.Stack)-1].PC
	if pc < 0 || int(pc) >= len(prog.Code) {
		return nil
	}
	return &prog.Code[pc]
}

// Step executes one instruction for the warp.
func Step[E Env](w *Warp, prog *isa.Program, env E) StepInfo {
	w.normalize()
	if len(w.Stack) == 0 {
		if w.Done() {
			return StepInfo{Kind: StepExit}
		}
		return StepInfo{Kind: StepFault, Fault: &ErrBadPC{PC: -1}}
	}
	top := &w.Stack[len(w.Stack)-1]
	pc := top.PC
	if pc < 0 || int(pc) >= len(prog.Code) {
		return StepInfo{Kind: StepFault, Fault: &ErrBadPC{PC: pc}}
	}
	ins := &prog.Code[pc]
	effective := top.Mask &^ w.Exited

	// Evaluate the guard predicate per lane.
	execMask := effective
	if ins.Pred != isa.PT || ins.PredNeg {
		execMask = 0
		for lane := 0; lane < 32; lane++ {
			bit := uint32(1) << lane
			if effective&bit == 0 {
				continue
			}
			v := readPred(env, lane, ins.Pred)
			if ins.PredNeg {
				v = !v
			}
			if v {
				execMask |= bit
			}
		}
	}

	info := StepInfo{Kind: StepOK, PC: pc, Instr: ins, ActiveMask: execMask}

	switch ins.Op {
	case isa.OpBRA:
		taken := execMask
		notTaken := effective &^ execMask
		switch {
		case taken == 0:
			top.PC = pc + 1
		case notTaken == 0:
			top.PC = int32(ins.Target)
		default:
			// Divergence: the current entry becomes the reconvergence
			// entry; children execute first.
			top.PC = int32(ins.Reconv)
			w.Stack = append(w.Stack,
				Ent{Mask: notTaken, PC: pc + 1, RPC: int32(ins.Reconv)},
				Ent{Mask: taken, PC: int32(ins.Target), RPC: int32(ins.Reconv)},
			)
		}
		return info

	case isa.OpEXIT:
		w.Exited |= execMask
		top.PC = pc + 1
		w.normalize()
		if w.Done() {
			info.Kind = StepExit
		}
		return info

	case isa.OpBAR:
		if execMask != w.FullMask&^w.Exited {
			info.Kind = StepFault
			info.Fault = ErrBarrierDivergence
			return info
		}
		info.Kind = StepBarrier
		return info

	case isa.OpNOP:
		top.PC = pc + 1
		return info
	}

	// Data instructions: execute per lane.
	for lane := 0; lane < 32; lane++ {
		bit := uint32(1) << lane
		if execMask&bit == 0 {
			continue
		}
		if err := execLane(env, lane, ins); err != nil {
			info.Kind = StepFault
			info.Fault = err
			return info
		}
	}
	top.PC = pc + 1
	return info
}

func readPred[E Env](env E, lane int, p isa.Pred) bool {
	if p == isa.PT {
		return true
	}
	return env.ReadPred(lane, p)
}

func writePred[E Env](env E, lane int, p isa.Pred, v bool) {
	if p == isa.PT {
		return
	}
	env.WritePred(lane, p, v)
}

func readReg[E Env](env E, lane int, r isa.Reg) uint32 {
	if r == isa.RZ {
		return 0
	}
	return env.ReadReg(lane, r)
}

func writeReg[E Env](env E, lane int, r isa.Reg, v uint32) {
	if r == isa.RZ {
		return
	}
	env.WriteReg(lane, r, v)
}

// F32I converts a float32 to int32 with saturation, matching hardware F2I
// semantics (Go's conversion is undefined for out-of-range values, and
// fault-injected runs hit those). Exported so the µop executor shares the
// exact conversion.
func F32I(f float32) int32 {
	switch {
	case f != f: // NaN
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(f)
	}
}

func execLane[E Env](env E, lane int, ins *isa.Instr) error {
	rb := func() uint32 {
		if ins.BImm {
			return uint32(ins.Imm)
		}
		return readReg(env, lane, ins.SrcB)
	}
	fa := func() float32 { return math.Float32frombits(readReg(env, lane, ins.SrcA)) }
	fb := func() float32 { return math.Float32frombits(rb()) }
	fw := func(f float32) { writeReg(env, lane, ins.Dst, math.Float32bits(f)) }

	switch ins.Op {
	case isa.OpS2R:
		writeReg(env, lane, ins.Dst, env.Special(lane, ins.Special))
	case isa.OpMOV:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA))
	case isa.OpMOVI:
		writeReg(env, lane, ins.Dst, uint32(ins.Imm))
	case isa.OpLDC:
		writeReg(env, lane, ins.Dst, env.Param(int(ins.Imm)))

	case isa.OpIADD:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)+rb())
	case isa.OpISUB:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)-rb())
	case isa.OpIMUL:
		writeReg(env, lane, ins.Dst, uint32(int32(readReg(env, lane, ins.SrcA))*int32(rb())))
	case isa.OpIMAD:
		writeReg(env, lane, ins.Dst,
			uint32(int32(readReg(env, lane, ins.SrcA))*int32(rb())+int32(readReg(env, lane, ins.SrcC))))
	case isa.OpISCADD:
		writeReg(env, lane, ins.Dst,
			(readReg(env, lane, ins.SrcA)<<(ins.Imm2&31))+readReg(env, lane, ins.SrcB))
	case isa.OpIMIN:
		a, b := int32(readReg(env, lane, ins.SrcA)), int32(rb())
		writeReg(env, lane, ins.Dst, uint32(min(a, b)))
	case isa.OpIMAX:
		a, b := int32(readReg(env, lane, ins.SrcA)), int32(rb())
		writeReg(env, lane, ins.Dst, uint32(max(a, b)))
	case isa.OpSHL:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)<<(rb()&31))
	case isa.OpSHR:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)>>(rb()&31))
	case isa.OpAND:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)&rb())
	case isa.OpOR:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)|rb())
	case isa.OpXOR:
		writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA)^rb())

	case isa.OpFADD:
		fw(fa() + fb())
	case isa.OpFSUB:
		fw(fa() - fb())
	case isa.OpFMUL:
		fw(fa() * fb())
	case isa.OpFFMA:
		c := math.Float32frombits(readReg(env, lane, ins.SrcC))
		// fused multiply-add: single rounding, like hardware FFMA
		fw(float32(math.FMA(float64(fa()), float64(fb()), float64(c))))
	case isa.OpFMIN:
		a, b := fa(), fb()
		if a < b || b != b {
			fw(a)
		} else {
			fw(b)
		}
	case isa.OpFMAX:
		a, b := fa(), fb()
		if a > b || b != b {
			fw(a)
		} else {
			fw(b)
		}
	case isa.OpMUFU:
		x := float64(fa())
		var y float64
		switch ins.Mufu {
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
		fw(float32(y))

	case isa.OpI2F:
		fw(float32(int32(readReg(env, lane, ins.SrcA))))
	case isa.OpF2I:
		writeReg(env, lane, ins.Dst, uint32(F32I(fa())))

	case isa.OpISETP:
		a, b := int32(readReg(env, lane, ins.SrcA)), int32(rb())
		r := ICmp(ins.Cmp, a, b)
		c := readPred(env, lane, ins.CPred)
		if ins.CPredNeg {
			c = !c
		}
		writePred(env, lane, ins.PDst, r && c)
	case isa.OpFSETP:
		r := FCmp(ins.Cmp, fa(), fb())
		c := readPred(env, lane, ins.CPred)
		if ins.CPredNeg {
			c = !c
		}
		writePred(env, lane, ins.PDst, r && c)
	case isa.OpSEL:
		v := readPred(env, lane, ins.SelPred)
		if ins.SelPredNeg {
			v = !v
		}
		if v {
			writeReg(env, lane, ins.Dst, readReg(env, lane, ins.SrcA))
		} else {
			writeReg(env, lane, ins.Dst, rb())
		}

	case isa.OpLDG, isa.OpLDT:
		addr := readReg(env, lane, ins.SrcA) + uint32(ins.Imm)
		v, err := env.LoadGlobal(lane, addr, ins.Op == isa.OpLDT)
		if err != nil {
			return err
		}
		writeReg(env, lane, ins.Dst, v)
	case isa.OpSTG:
		addr := readReg(env, lane, ins.SrcA) + uint32(ins.Imm)
		if err := env.StoreGlobal(lane, addr, readReg(env, lane, ins.SrcB)); err != nil {
			return err
		}
	case isa.OpLDS:
		addr := readReg(env, lane, ins.SrcA) + uint32(ins.Imm)
		v, err := env.LoadShared(lane, addr)
		if err != nil {
			return err
		}
		writeReg(env, lane, ins.Dst, v)
	case isa.OpSTS:
		addr := readReg(env, lane, ins.SrcA) + uint32(ins.Imm)
		if err := env.StoreShared(lane, addr, readReg(env, lane, ins.SrcB)); err != nil {
			return err
		}
	default:
		return ErrUnimplemented(ins.Op)
	}
	return nil
}

// ErrUnimplemented is the fault raised when a lane executes an opcode
// outside the ISA. Shared with the µop executor.
func ErrUnimplemented(op isa.Op) error {
	return fmt.Errorf("unimplemented opcode %v", op)
}

// ICmp evaluates an integer comparison. Shared with the µop executor.
func ICmp(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	}
	return false
}

// FCmp evaluates a float comparison (CmpNE is true for NaN, per IEEE).
func FCmp(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b // true for NaN operands, matching IEEE
	}
	return false
}
