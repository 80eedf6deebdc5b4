package uop_test

import (
	"testing"

	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/uop"
)

// TestCompileAllKernels: compilation is total over the shipped ISA — every
// kernel of every benchmark application lowers with one µop per source
// instruction and a well-formed dispatch kind.
func TestCompileAllKernels(t *testing.T) {
	seen := map[*isa.Program]bool{}
	for _, app := range kernels.All() {
		job := app.Build()
		for _, step := range job.Steps {
			if step.Launch == nil || seen[step.Launch.Kernel] {
				continue
			}
			prog := step.Launch.Kernel
			seen[prog] = true
			cp := uop.Compile(prog)
			if cp.Src != prog {
				t.Errorf("%s/%s: compiled program lost its source pointer", app.Name, prog.Name)
			}
			if len(cp.Ops) != len(prog.Code) {
				t.Errorf("%s/%s: %d µops for %d instructions", app.Name, prog.Name, len(cp.Ops), len(prog.Code))
			}
			for pc := range cp.Ops {
				if k := cp.Ops[pc].Kind; k >= uop.NumKinds || k == uop.KBadOp {
					t.Errorf("%s/%s: pc %d: bad kind %d", app.Name, prog.Name, pc, k)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no kernels compiled")
	}
}

// TestCachedMemoizes: Cached compiles once per program pointer and hands the
// same compiled object back on every subsequent call.
func TestCachedMemoizes(t *testing.T) {
	p := &isa.Program{
		Name:    "memo",
		NumRegs: 2,
		Code: []isa.Instr{
			{Op: isa.OpMOVI, Dst: 0, Imm: 7},
			{Op: isa.OpEXIT},
		},
	}
	first := uop.Cached(p)
	if again := uop.Cached(p); again != first {
		t.Error("second lookup returned a different compiled program")
	}
}

// TestCachedUncompilable: there is no uncompilable program. An opcode
// outside the ISA lowers to a KBadOp µop carrying the opcode (it faults only
// if a lane executes it — internal/sim's TestOutOfISAOpcode runs that on
// both cores), so Cached always has a program to hand back.
func TestCachedUncompilable(t *testing.T) {
	p := &isa.Program{
		Name:    "bad",
		NumRegs: 1,
		Code:    []isa.Instr{{Op: isa.Op(200), Pred: isa.PT + 1}, {Op: isa.OpEXIT}},
	}
	cp := uop.Cached(p)
	if cp == nil || len(cp.Ops) != 2 {
		t.Fatalf("out-of-ISA program cached as %+v", cp)
	}
	if u := cp.Ops[0]; u.Kind != uop.KBadOp || isa.Op(u.Imm) != isa.Op(200) || u.GuardBit == 0 {
		t.Errorf("opcode 200 lowered to %+v, want a guarded KBadOp carrying the opcode", u)
	}
	if uop.Cached(p) != cp {
		t.Error("second lookup returned a different compiled program")
	}
}

// TestDropLowering: architecturally-null ops lower to KDrop — they keep
// their issue slot and latency class but need no handler — while memory
// ops are never dropped (loads can fault, stores have effects).
func TestDropLowering(t *testing.T) {
	cases := []struct {
		name string
		ins  isa.Instr
		want uop.Kind
	}{
		{"alu-to-rz", isa.Instr{Op: isa.OpIADD, Dst: isa.RZ, SrcA: 0, SrcB: 1}, uop.KDrop},
		{"setp-to-pt", isa.Instr{Op: isa.OpISETP, PDst: isa.PT, SrcA: 0, SrcB: 1}, uop.KDrop},
		{"mov-to-rz", isa.Instr{Op: isa.OpMOV, Dst: isa.RZ, SrcA: 0}, uop.KDrop},
		{"load-to-rz", isa.Instr{Op: isa.OpLDG, Dst: isa.RZ, SrcA: 0}, uop.KLdg},
		{"store", isa.Instr{Op: isa.OpSTG, SrcA: 0, SrcB: 1}, uop.KStg},
		{"live-alu", isa.Instr{Op: isa.OpIADD, Dst: 0, SrcA: 0, SrcB: 1}, uop.KIAdd},
		{"live-alu-imm", isa.Instr{Op: isa.OpIADD, Dst: 0, SrcA: 0, BImm: true, Imm: 3}, uop.KIAddImm},
		{"live-setp", isa.Instr{Op: isa.OpISETP, PDst: isa.PT + 1, SrcA: 0, SrcB: 1}, uop.KISetp},
	}
	for _, c := range cases {
		p := &isa.Program{Name: c.name, NumRegs: 2, Code: []isa.Instr{c.ins, {Op: isa.OpEXIT}}}
		cp := uop.Compile(p)
		if cp.Ops[0].Kind != c.want {
			t.Errorf("%s: kind %d, want %d", c.name, cp.Ops[0].Kind, c.want)
		}
	}
}
