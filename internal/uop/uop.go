// Package uop lowers isa programs into the pre-decoded µop records both
// simulators execute, and holds what the two share of executing them: the
// control half of a SIMT step, (*Program).Issue (issue.go), and the handlers
// of every µop kind that reaches nothing outside its frame — the register and
// predicate kinds, S2R and LDC (handlers.go). So the cycle-level simulator
// and the functional one state an instruction's semantics once and differ
// only in memory, timing and bookkeeping. The decode-and-switch in exec.Step
// pays for operand resolution (BImm vs register, RZ special-casing, guard
// predicate lookup, latency classification) on every warp-instruction;
// Compile pays it once per static instruction and emits a flat record whose
// Kind is a dense dispatch index into the handler tables.
//
// Compiled programs carry a pointer back to the source program so the
// executors can keep reporting *isa.Instr (the stats and trace layers key off
// the architectural instruction, not the µop). Compilation is total: an
// opcode outside the ISA (isa.Program.Validate rejects those, so only
// hand-built programs carry one) lowers to KBadOp, which faults when a lane
// executes it — the same point exec.Step reports the opcode.
package uop

import (
	"sync"

	"gpurel/internal/isa"
)

// Kind is the dense dispatch index of a µop. Register/immediate variants of
// the same architectural op get distinct kinds so handlers read their second
// operand without a per-lane branch.
type Kind uint8

// Dispatch kinds. The control kinds (KNop..KBar) are executed by Issue;
// every other kind is a data µop the executor runs. KDrop has no effect; the
// kinds from KS2R to KSelImm index Fns; the memory kinds and KBadOp index the
// executor's own table.
const (
	KNop Kind = iota
	KExit
	KBra
	KBar
	// KDrop is a data op whose architectural effect is provably nil (an
	// ALU/SFU op writing RZ, or a SETP writing PT). It still occupies its
	// issue slot and latency class.
	KDrop

	KS2R
	KMov
	KMovImm
	KLdc

	KIAdd
	KIAddImm
	KISub
	KISubImm
	KIMul
	KIMulImm
	KIMad
	KIMadImm
	KIScAdd
	KIMin
	KIMinImm
	KIMax
	KIMaxImm
	KShl
	KShlImm
	KShr
	KShrImm
	KAnd
	KAndImm
	KOr
	KOrImm
	KXor
	KXorImm

	KFAdd
	KFAddImm
	KFSub
	KFSubImm
	KFMul
	KFMulImm
	KFFma
	KFFmaImm
	KFMin
	KFMinImm
	KFMax
	KFMaxImm
	KMufu

	KI2F
	KF2I

	KISetp
	KISetpImm
	KFSetp
	KFSetpImm
	KSel
	KSelImm

	KLdg
	KLdt
	KStg
	KLds
	KSts

	// KBadOp is an opcode outside the ISA: it faults with exec's
	// "unimplemented opcode" error if any lane executes it. Imm holds the
	// opcode.
	KBadOp

	NumKinds
)

// Class is the latency class of a µop, matching the simulator's scoreboard
// buckets.
type Class uint8

// Latency classes.
const (
	ClassALU Class = iota
	ClassSFU
	ClassSMem
	ClassGMem
)

// Op is one pre-decoded µop. Register operands are architectural register
// numbers resolved to int16 with -1 standing for RZ (reads as zero, writes
// discarded); predicate operands are resolved to the bit each occupies in
// the per-thread predicate byte (0 = PT). Handlers for kinds that cannot
// carry RZ/PT (enforced by Compile) skip the check entirely.
type Op struct {
	Kind  Kind
	Class Class

	// Guard predicate: bit in the predicate byte (0 = unguarded PT).
	// GuardNeg with GuardBit 0 is the degenerate "@!PT" guard: a constant
	// false, the µop never executes any lane.
	GuardBit uint8
	GuardNeg bool

	PDstBit uint8 // SETP destination bit (0 = PT: discard)
	CBit    uint8 // SETP combine predicate bit (0 = PT: true)
	CNeg    bool
	SelBit  uint8 // SEL predicate bit (0 = PT: true)
	SelNeg  bool

	Sh      uint8 // ISCADD shift amount, pre-masked to [0,31]
	Cmp     isa.CmpOp
	Mufu    isa.MufuOp
	Special isa.SReg

	// What the software-level injector counts per executed lane, resolved
	// here so it is arithmetic on the µop instead of a test per register
	// access. They describe the architectural instruction, so they survive
	// the lowering to KDrop (a dropped op still reads its operands). The
	// three bytes sit in what used to be padding: Op stays 36 bytes.
	WritesReg bool // a destination-register candidate: isa.Instr.Writing

	A, B, C, Dst int16

	Load bool  // WritesReg and a load: a load-destination candidate
	NSrc uint8 // register source operands other than RZ (SEL reads one of its two per lane)

	// Imm is the raw 32-bit immediate: the value for MOVI and *Imm ALU
	// kinds (float kinds hold IEEE bits), the parameter index for LDC, and
	// the address offset for memory kinds.
	Imm uint32

	Target, Reconv int32 // BRA only
}

// Program is a compiled program: one µop per source instruction, same PCs.
type Program struct {
	// Src is the source program; Src.Code[pc] is the architectural
	// instruction behind Ops[pc].
	Src *isa.Program
	Ops []Op
}

func reg(r isa.Reg) int16 {
	if r == isa.RZ {
		return -1
	}
	return int16(r)
}

func predBit(p isa.Pred) uint8 {
	if p == isa.PT {
		return 0
	}
	return 1 << (p - 1)
}

func latClass(op isa.Op) Class {
	switch op {
	case isa.OpMUFU:
		return ClassSFU
	case isa.OpLDS, isa.OpSTS:
		return ClassSMem
	case isa.OpLDG, isa.OpSTG, isa.OpLDT:
		return ClassGMem
	default:
		return ClassALU
	}
}

// immKind maps a register-register kind to its immediate variant.
func immKind(k Kind, bimm bool) Kind {
	if !bimm {
		return k
	}
	return k + 1 // *Imm kinds immediately follow their register variant
}

// Compile lowers p into a µop program, one µop per instruction.
func Compile(p *isa.Program) *Program {
	cp := &Program{Src: p, Ops: make([]Op, len(p.Code))}
	for pc := range p.Code {
		ins := &p.Code[pc]
		u := &cp.Ops[pc]
		u.Class = latClass(ins.Op)
		u.GuardBit = predBit(ins.Pred)
		u.GuardNeg = ins.PredNeg
		u.A = reg(ins.SrcA)
		u.B = reg(ins.SrcB)
		u.C = reg(ins.SrcC)
		u.Dst = reg(ins.Dst)
		u.Imm = uint32(ins.Imm)
		u.WritesReg = ins.Writing()
		u.Load = u.WritesReg && ins.IsLoad()
		var srcs [3]isa.Reg
		for _, s := range ins.SrcRegs(srcs[:0]) {
			if s != isa.RZ {
				u.NSrc++
			}
		}

		switch ins.Op {
		case isa.OpNOP:
			u.Kind = KNop
		case isa.OpEXIT:
			u.Kind = KExit
		case isa.OpBRA:
			u.Kind = KBra
			u.Target = int32(ins.Target)
			u.Reconv = int32(ins.Reconv)
		case isa.OpBAR:
			u.Kind = KBar

		case isa.OpS2R:
			u.Kind = KS2R
			u.Special = ins.Special
		case isa.OpMOV:
			u.Kind = KMov
		case isa.OpMOVI:
			u.Kind = KMovImm
		case isa.OpLDC:
			u.Kind = KLdc

		case isa.OpIADD:
			u.Kind = immKind(KIAdd, ins.BImm)
		case isa.OpISUB:
			u.Kind = immKind(KISub, ins.BImm)
		case isa.OpIMUL:
			u.Kind = immKind(KIMul, ins.BImm)
		case isa.OpIMAD:
			u.Kind = immKind(KIMad, ins.BImm)
		case isa.OpISCADD:
			// reads SrcB as a register regardless of BImm, like exec.Step
			u.Kind = KIScAdd
			u.Sh = ins.Imm2 & 31
		case isa.OpIMIN:
			u.Kind = immKind(KIMin, ins.BImm)
		case isa.OpIMAX:
			u.Kind = immKind(KIMax, ins.BImm)
		case isa.OpSHL:
			u.Kind = immKind(KShl, ins.BImm)
		case isa.OpSHR:
			u.Kind = immKind(KShr, ins.BImm)
		case isa.OpAND:
			u.Kind = immKind(KAnd, ins.BImm)
		case isa.OpOR:
			u.Kind = immKind(KOr, ins.BImm)
		case isa.OpXOR:
			u.Kind = immKind(KXor, ins.BImm)

		case isa.OpFADD:
			u.Kind = immKind(KFAdd, ins.BImm)
		case isa.OpFSUB:
			u.Kind = immKind(KFSub, ins.BImm)
		case isa.OpFMUL:
			u.Kind = immKind(KFMul, ins.BImm)
		case isa.OpFFMA:
			u.Kind = immKind(KFFma, ins.BImm)
		case isa.OpFMIN:
			u.Kind = immKind(KFMin, ins.BImm)
		case isa.OpFMAX:
			u.Kind = immKind(KFMax, ins.BImm)
		case isa.OpMUFU:
			u.Kind = KMufu
			u.Mufu = ins.Mufu

		case isa.OpI2F:
			u.Kind = KI2F
		case isa.OpF2I:
			u.Kind = KF2I

		case isa.OpISETP:
			u.Kind = immKind(KISetp, ins.BImm)
			u.Cmp = ins.Cmp
			u.PDstBit = predBit(ins.PDst)
			u.CBit = predBit(ins.CPred)
			u.CNeg = ins.CPredNeg
		case isa.OpFSETP:
			u.Kind = immKind(KFSetp, ins.BImm)
			u.Cmp = ins.Cmp
			u.PDstBit = predBit(ins.PDst)
			u.CBit = predBit(ins.CPred)
			u.CNeg = ins.CPredNeg
		case isa.OpSEL:
			u.Kind = immKind(KSel, ins.BImm)
			u.SelBit = predBit(ins.SelPred)
			u.SelNeg = ins.SelPredNeg

		case isa.OpLDG:
			u.Kind = KLdg
		case isa.OpLDT:
			u.Kind = KLdt
		case isa.OpSTG:
			u.Kind = KStg
		case isa.OpLDS:
			u.Kind = KLds
		case isa.OpSTS:
			u.Kind = KSts

		default:
			u.Kind = KBadOp
			u.Imm = uint32(ins.Op)
		}

		// Architectural no-ops: pure register ops writing RZ and SETPs
		// writing PT keep their latency class but need no handler. Memory
		// ops are never dropped (loads can fault, stores have effects).
		switch u.Kind {
		case KS2R, KMov, KMovImm, KLdc,
			KIAdd, KIAddImm, KISub, KISubImm, KIMul, KIMulImm, KIMad, KIMadImm,
			KIScAdd, KIMin, KIMinImm, KIMax, KIMaxImm,
			KShl, KShlImm, KShr, KShrImm, KAnd, KAndImm, KOr, KOrImm, KXor, KXorImm,
			KFAdd, KFAddImm, KFSub, KFSubImm, KFMul, KFMulImm, KFFma, KFFmaImm,
			KFMin, KFMinImm, KFMax, KFMaxImm, KMufu, KI2F, KF2I, KSel, KSelImm:
			if u.Dst < 0 {
				u.Kind = KDrop
			}
		case KISetp, KISetpImm, KFSetp, KFSetpImm:
			if u.PDstBit == 0 {
				u.Kind = KDrop
			}
		}
	}
	return cp
}

// cache maps *isa.Program to its compiled form. Keying on the pointer is
// sound because programs are immutable after construction and shared across
// all replicas of a job.
var cache sync.Map

// Cached returns the compiled form of p, compiling and memoizing on first
// use.
func Cached(p *isa.Program) *Program {
	if v, ok := cache.Load(p); ok {
		return v.(*Program)
	}
	v, _ := cache.LoadOrStore(p, Compile(p))
	return v.(*Program)
}
