package uop_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/harden"
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

// TestOpLayout: the three injector properties live in what was padding.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(uop.Op{}); got != 36 {
		t.Errorf("uop.Op is %d bytes, want 36", got)
	}
}

// TestHandlerTableCoverage: uop.Fns holds a handler for exactly the kinds
// that reach nothing outside the frame: the register-only kinds, S2R and
// LDC. Control kinds are Issue's, KDrop has no effect, and the memory kinds
// and KBadOp are each simulator's own table, so a nil or non-nil entry in
// the wrong place would let one of them silently skip a kind or execute it
// twice.
func TestHandlerTableCoverage(t *testing.T) {
	own := map[uop.Kind]bool{
		uop.KNop: true, uop.KExit: true, uop.KBra: true, uop.KBar: true, uop.KDrop: true,
		uop.KLdg: true, uop.KLdt: true, uop.KStg: true, uop.KLds: true, uop.KSts: true,
		uop.KBadOp: true,
	}
	shared := 0
	for k := uop.Kind(0); k < uop.NumKinds; k++ {
		switch has := uop.Fns[k] != nil; {
		case has && own[k]:
			t.Errorf("kind %d belongs to the simulators but has a shared handler", k)
		case !has && !own[k]:
			t.Errorf("register-only kind %d has no handler", k)
		case has:
			shared++
		}
	}
	if shared != 48 {
		t.Errorf("%d shared handlers, want 48 (S2R … SEL)", shared)
	}
}

// probeEnv is a one-lane exec.Env that counts what exec.Step asks of it.
type probeEnv struct{ reads, writes int }

func (e *probeEnv) ReadReg(int, isa.Reg) uint32                  { e.reads++; return 0 }
func (e *probeEnv) WriteReg(int, isa.Reg, uint32)                { e.writes++ }
func (e *probeEnv) ReadPred(int, isa.Pred) bool                  { return true }
func (e *probeEnv) WritePred(int, isa.Pred, bool)                {}
func (e *probeEnv) Special(int, isa.SReg) uint32                 { return 0 }
func (e *probeEnv) Param(int) uint32                             { return 0 }
func (e *probeEnv) LoadGlobal(int, uint32, bool) (uint32, error) { return 0, nil }
func (e *probeEnv) StoreGlobal(int, uint32, uint32) error        { return nil }
func (e *probeEnv) LoadShared(int, uint32) (uint32, error)       { return 0, nil }
func (e *probeEnv) StoreShared(int, uint32, uint32) error        { return nil }

// TestInjectorProperties: for every instruction of all 23 kernels, the TMR
// vote kernel and 1000 generated programs, the properties Compile resolves
// for the software-level injector are the architectural instruction's —
// WritesReg is Writing, Load is Writing and IsLoad, NSrc the non-RZ entries
// of SrcRegs — and they are what exec.Step does: one lane of the instruction
// through the interpreter writes a register exactly if WritesReg, and reads
// NSrc of them (a SEL, which reads one of its two sources per lane, at most
// NSrc). An immediate B is no read; ISCADD's B is always a register.
func TestInjectorProperties(t *testing.T) {
	progs := map[*isa.Program]bool{}
	collect := func(job *device.Job) {
		for _, step := range job.Steps {
			if step.Launch != nil {
				progs[step.Launch.Kernel] = true
			}
		}
	}
	var voter int
	for _, app := range kernels.All() {
		job := app.Build()
		collect(job)
		if app.Name == "VA" { // hardening replicates launches of the same programs and adds the voter
			before := len(progs)
			collect(harden.TMR(job))
			voter = len(progs) - before
		}
	}
	if len(progs) != 24 || voter != 1 {
		t.Fatalf("%d distinct kernels (%d from hardening), want 23 and the TMR voter", len(progs), voter)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		data := make([]byte, 8+rng.Intn(256))
		rng.Read(data)
		progs[fuzzprog.Program(data)] = true
	}

	checked, loads, sels, drops := 0, 0, 0, 0
	for prog := range progs {
		cp := uop.Compile(prog)
		for pc := range prog.Code {
			ins, u := &prog.Code[pc], &cp.Ops[pc]
			var buf [3]isa.Reg
			nsrc := 0
			for _, s := range ins.SrcRegs(buf[:0]) {
				if s != isa.RZ {
					nsrc++
				}
			}
			if u.WritesReg != ins.Writing() || u.Load != (ins.Writing() && ins.IsLoad()) || int(u.NSrc) != nsrc {
				t.Fatalf("%s pc %d %v: WritesReg %v Load %v NSrc %d, want %v %v %d", prog.Name, pc, ins,
					u.WritesReg, u.Load, u.NSrc, ins.Writing(), ins.Writing() && ins.IsLoad(), nsrc)
			}
			checked++
			if u.Load {
				loads++
			}
			if u.Kind == uop.KDrop {
				drops++
			}
			switch ins.Op {
			case isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP:
				continue // no lane effect; a lone BRA or EXIT would end the probe program
			}
			one := *ins
			one.Pred, one.PredNeg = isa.PT, false
			env := &probeEnv{}
			exec.Step(exec.NewWarp(1), &isa.Program{NumRegs: prog.NumRegs, Code: []isa.Instr{one, {Op: isa.OpEXIT}}}, env)
			sel := ins.Op == isa.OpSEL
			if sel {
				sels++
			}
			if (env.writes == 1) != u.WritesReg || env.reads > int(u.NSrc) || !sel && env.reads != int(u.NSrc) {
				t.Fatalf("%s pc %d %v: exec.Step made %d reads and %d writes, the µop says NSrc %d WritesReg %v",
					prog.Name, pc, ins, env.reads, env.writes, u.NSrc, u.WritesReg)
			}
		}
	}
	if loads == 0 || sels == 0 || drops == 0 {
		t.Errorf("%d instructions checked, but %d loads, %d SELs, %d dropped ops", checked, loads, sels, drops)
	}
}
