// The µop handlers that touch nothing outside the CTA's own state: every kind
// whose effect is on registers and predicates, plus S2R and LDC, which read
// the CTA's launch through Frame.CTA. They are written once for both
// simulators. A handler runs one µop for the lanes in mask, ascending, on a
// Frame the simulator fills per issue; it cannot fail. The kinds that reach
// memory — global and shared loads and stores — and the out-of-ISA fault stay
// with each simulator, because a cache hierarchy with coalescing and a flat
// device.Memory are exactly where the two differ. Scalar semantics
// (saturating F2I, comparisons) come from exec's helpers, so exec.Step, the
// test-only interpreter these handlers are checked against, shares them.

package uop

import (
	"math"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
)

// Frame is the storage a handler works on: the issuing warp's window into a
// register array and a predicate array, and the CTA it belongs to. Lane l of
// the warp is thread TBase+l of the CTA and owns
// Regs[RBase+l*Stride : +Stride] and Preds[TBase+l]. A Stride of 0 aliases
// every lane onto one register window, which lets a simulator run a single
// lane on a scratch copy of its operands (see funcsim).
type Frame struct {
	Regs   []uint32
	Preds  []uint8 // one byte per thread, bit i-1 = predicate Pi
	RBase  int
	Stride int
	TBase  int
	CTA    *CTA
}

// CTA is what S2R and LDC read of the CTA being executed: its launch, the
// parameters of its replica, and its position in the grid.
type CTA struct {
	Launch *device.Launch
	Params []uint32
	X, Y   int
}

// special returns special register s of thread t, lane lane of its warp.
func (c *CTA) special(t, lane int, s isa.SReg) uint32 {
	l := c.Launch
	switch s {
	case isa.SRTidX:
		return uint32(t % l.BlockX)
	case isa.SRTidY:
		return uint32(t / l.BlockX)
	case isa.SRCtaIDX:
		return uint32(c.X)
	case isa.SRCtaIDY:
		return uint32(c.Y)
	case isa.SRNTidX:
		return uint32(l.BlockX)
	case isa.SRNTidY:
		return uint32(l.BlockY)
	case isa.SRNCtaX:
		return uint32(l.GridX)
	case isa.SRNCtaY:
		return uint32(l.GridY)
	case isa.SRLaneID:
		return uint32(lane)
	}
	return 0
}

// Fn executes one µop for the lanes in mask.
type Fn func(f *Frame, u *Op, mask uint32)

// Fns is the handler table, indexed by Kind. It is non-nil for exactly the
// kinds that reach nothing but the frame: control kinds are Issue's, KDrop
// needs no handler, and the memory kinds (KLdg, KLdt, KStg, KLds, KSts) and
// KBadOp are each simulator's own.
var Fns = [NumKinds]Fn{
	KS2R:      uS2R,
	KMov:      uMov,
	KMovImm:   uMovImm,
	KLdc:      uLdc,
	KIAdd:     uIAdd,
	KIAddImm:  uIAddImm,
	KISub:     uISub,
	KISubImm:  uISubImm,
	KIMul:     uIMul,
	KIMulImm:  uIMulImm,
	KIMad:     uIMad,
	KIMadImm:  uIMadImm,
	KIScAdd:   uIScAdd,
	KIMin:     uIMin,
	KIMinImm:  uIMinImm,
	KIMax:     uIMax,
	KIMaxImm:  uIMaxImm,
	KShl:      uShl,
	KShlImm:   uShlImm,
	KShr:      uShr,
	KShrImm:   uShrImm,
	KAnd:      uAnd,
	KAndImm:   uAndImm,
	KOr:       uOr,
	KOrImm:    uOrImm,
	KXor:      uXor,
	KXorImm:   uXorImm,
	KFAdd:     uFAdd,
	KFAddImm:  uFAddImm,
	KFSub:     uFSub,
	KFSubImm:  uFSubImm,
	KFMul:     uFMul,
	KFMulImm:  uFMulImm,
	KFFma:     uFFma,
	KFFmaImm:  uFFmaImm,
	KFMin:     uFMin,
	KFMinImm:  uFMinImm,
	KFMax:     uFMax,
	KFMaxImm:  uFMaxImm,
	KMufu:     uMufu,
	KI2F:      uI2F,
	KF2I:      uF2I,
	KISetp:    uISetp,
	KISetpImm: uISetpImm,
	KFSetp:    uFSetp,
	KFSetpImm: uFSetpImm,
	KSel:      uSel,
	KSelImm:   uSelImm,
}

// Src reads a resolved source operand of the thread whose register 0 is
// rf[lb]: -1 is RZ. Exported for the simulators' memory handlers.
func Src(rf []uint32, lb int, r int16) uint32 {
	if r < 0 {
		return 0
	}
	return rf[lb+int(r)]
}

func fsrc(rf []uint32, lb int, r int16) float32 {
	return math.Float32frombits(Src(rf, lb, r))
}

// Compile guarantees Dst >= 0 for every kind handled here (RZ destinations
// become KDrop), so the handlers index rf[lb+Dst] without a check.

func uS2R(f *Frame, u *Op, mask uint32) {
	rf, c := f.Regs, f.CTA
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = c.special(f.TBase+lane, lane, u.Special)
		}
	}
}

func uLdc(f *Frame, u *Op, mask uint32) {
	var v uint32 // a parameter index out of range reads 0
	if p := f.CTA.Params; u.Imm < uint32(len(p)) {
		v = p[u.Imm]
	}
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = v
		}
	}
}

func uMov(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A)
		}
	}
}

func uMovImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = u.Imm
		}
	}
}

func uIAdd(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) + Src(rf, lb, u.B)
		}
	}
}

func uIAddImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) + u.Imm
		}
	}
}

func uISub(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) - Src(rf, lb, u.B)
		}
	}
}

func uISubImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) - u.Imm
		}
	}
}

func uIMul(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(Src(rf, lb, u.A)) * int32(Src(rf, lb, u.B)))
		}
	}
}

func uIMulImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(Src(rf, lb, u.A)) * int32(u.Imm))
		}
	}
}

func uIMad(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(Src(rf, lb, u.A))*int32(Src(rf, lb, u.B)) + int32(Src(rf, lb, u.C)))
		}
	}
}

func uIMadImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(int32(Src(rf, lb, u.A))*int32(u.Imm) + int32(Src(rf, lb, u.C)))
		}
	}
}

func uIScAdd(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = (Src(rf, lb, u.A) << u.Sh) + Src(rf, lb, u.B)
		}
	}
}

func uIMin(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(min(int32(Src(rf, lb, u.A)), int32(Src(rf, lb, u.B))))
		}
	}
}

func uIMinImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(min(int32(Src(rf, lb, u.A)), int32(u.Imm)))
		}
	}
}

func uIMax(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(max(int32(Src(rf, lb, u.A)), int32(Src(rf, lb, u.B))))
		}
	}
}

func uIMaxImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(max(int32(Src(rf, lb, u.A)), int32(u.Imm)))
		}
	}
}

func uShl(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) << (Src(rf, lb, u.B) & 31)
		}
	}
}

func uShlImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	sh := u.Imm & 31
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) << sh
		}
	}
}

func uShr(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) >> (Src(rf, lb, u.B) & 31)
		}
	}
}

func uShrImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	sh := u.Imm & 31
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) >> sh
		}
	}
}

func uAnd(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) & Src(rf, lb, u.B)
		}
	}
}

func uAndImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) & u.Imm
		}
	}
}

func uOr(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) | Src(rf, lb, u.B)
		}
	}
}

func uOrImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) | u.Imm
		}
	}
}

func uXor(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) ^ Src(rf, lb, u.B)
		}
	}
}

func uXorImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A) ^ u.Imm
		}
	}
}

func uFAdd(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) + fsrc(rf, lb, u.B))
		}
	}
}

func uFAddImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := math.Float32frombits(u.Imm)
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) + b)
		}
	}
}

func uFSub(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) - fsrc(rf, lb, u.B))
		}
	}
}

func uFSubImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := math.Float32frombits(u.Imm)
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) - b)
		}
	}
}

func uFMul(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) * fsrc(rf, lb, u.B))
		}
	}
}

func uFMulImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := math.Float32frombits(u.Imm)
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fsrc(rf, lb, u.A) * b)
		}
	}
}

func uFFma(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			f := math.FMA(float64(fsrc(rf, lb, u.A)), float64(fsrc(rf, lb, u.B)), float64(fsrc(rf, lb, u.C)))
			rf[lb+int(u.Dst)] = math.Float32bits(float32(f))
		}
	}
}

func uFFmaImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := float64(math.Float32frombits(u.Imm))
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			f := math.FMA(float64(fsrc(rf, lb, u.A)), b, float64(fsrc(rf, lb, u.C)))
			rf[lb+int(u.Dst)] = math.Float32bits(float32(f))
		}
	}
}

// fminVal/fmaxVal: the second operand wins only when it is ordered and beats
// the first (exec.Step's NaN handling).
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

func uFMin(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fminVal(fsrc(rf, lb, u.A), fsrc(rf, lb, u.B)))
		}
	}
}

func uFMinImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := math.Float32frombits(u.Imm)
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fminVal(fsrc(rf, lb, u.A), b))
		}
	}
}

func uFMax(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fmaxVal(fsrc(rf, lb, u.A), fsrc(rf, lb, u.B)))
		}
	}
}

func uFMaxImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	b := math.Float32frombits(u.Imm)
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(fmaxVal(fsrc(rf, lb, u.A), b))
		}
	}
}

func uMufu(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
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
}

func uI2F(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = math.Float32bits(float32(int32(Src(rf, lb, u.A))))
		}
	}
}

func uF2I(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	for lb, m := f.RBase, mask; m != 0; lb, m = lb+f.Stride, m>>1 {
		if m&1 != 0 {
			rf[lb+int(u.Dst)] = uint32(exec.F32I(fsrc(rf, lb, u.A)))
		}
	}
}

// setp writes the combined comparison result into the thread's predicate
// byte. PDstBit != 0 is guaranteed by Compile (PT destinations drop).
func setp(preds []uint8, t int, u *Op, r bool) {
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

func uISetp(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 != 0 {
			r := exec.ICmp(u.Cmp, int32(Src(rf, lb, u.A)), int32(Src(rf, lb, u.B)))
			setp(preds, f.TBase+lane, u, r)
		}
	}
}

func uISetpImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	b := int32(u.Imm)
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 != 0 {
			r := exec.ICmp(u.Cmp, int32(Src(rf, lb, u.A)), b)
			setp(preds, f.TBase+lane, u, r)
		}
	}
}

func uFSetp(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 != 0 {
			r := exec.FCmp(u.Cmp, fsrc(rf, lb, u.A), fsrc(rf, lb, u.B))
			setp(preds, f.TBase+lane, u, r)
		}
	}
}

func uFSetpImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	b := math.Float32frombits(u.Imm)
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 != 0 {
			r := exec.FCmp(u.Cmp, fsrc(rf, lb, u.A), b)
			setp(preds, f.TBase+lane, u, r)
		}
	}
}

// SelectsA reports whether a SEL picks its A operand in a thread whose
// predicate byte is pred (otherwise B or the immediate).
func (u *Op) SelectsA(pred uint8) bool {
	return (u.SelBit == 0 || pred&u.SelBit != 0) != u.SelNeg
}

// Sel reports whether the µop at pc is a SEL. A SEL into RZ lowers to KDrop
// but keeps its predicate, and still reads the operand it picks.
func (p *Program) Sel(pc int32) bool {
	k := p.Ops[pc].Kind
	return k == KSel || k == KSelImm || k == KDrop && p.Src.Code[pc].Op == isa.OpSEL
}

// PicksA returns the lanes of mask on which the SEL u picks its A operand:
// the schedule trace and the software-level injector both need to know which
// of the two operands each lane read.
func (u *Op) PicksA(f *Frame, mask uint32) uint32 {
	var a uint32
	for lane, m := 0, mask; m != 0; lane, m = lane+1, m>>1 {
		if m&1 != 0 && u.SelectsA(f.Preds[f.TBase+lane]) {
			a |= 1 << lane
		}
	}
	return a
}

func uSel(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		if u.SelectsA(preds[f.TBase+lane]) {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A)
		} else {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.B)
		}
	}
}

func uSelImm(f *Frame, u *Op, mask uint32) {
	rf := f.Regs
	preds := f.Preds
	for lane, lb, m := 0, f.RBase, mask; m != 0; lane, lb, m = lane+1, lb+f.Stride, m>>1 {
		if m&1 == 0 {
			continue
		}
		if u.SelectsA(preds[f.TBase+lane]) {
			rf[lb+int(u.Dst)] = Src(rf, lb, u.A)
		} else {
			rf[lb+int(u.Dst)] = u.Imm
		}
	}
}
