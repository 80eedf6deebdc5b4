package flow_test

import (
	"strings"
	"testing"

	"gpurel/internal/flow"
	"gpurel/internal/isa"
)

// prog builds a Program directly from instructions; NumRegs is sized to the
// highest register mentioned unless overridden.
func prog(numRegs int, code ...isa.Instr) *isa.Program {
	return &isa.Program{Name: "t", Code: code, NumRegs: numRegs}
}

func mov(dst isa.Reg, src isa.Reg) isa.Instr {
	return isa.Instr{Op: isa.OpMOV, Dst: dst, SrcA: src}
}

func movi(dst isa.Reg, v int32) isa.Instr {
	return isa.Instr{Op: isa.OpMOVI, Dst: dst, Imm: v}
}

func iadd(dst, a, b isa.Reg) isa.Instr {
	return isa.Instr{Op: isa.OpIADD, Dst: dst, SrcA: a, SrcB: b}
}

func bra(target, reconv int, p isa.Pred, neg bool) isa.Instr {
	return isa.Instr{Op: isa.OpBRA, Target: target, Reconv: reconv, Pred: p, PredNeg: neg}
}

func exit() isa.Instr { return isa.Instr{Op: isa.OpEXIT} }

// diamond is the canonical if/else shape:
//
//	#0 MOVI R0, 1
//	#1 ISETP P0 = R0 < R0
//	#2 @!P0 BRA #5 (reconv #6)
//	#3 MOVI R1, 2     ; then
//	#4 BRA #6 (reconv #6)
//	#5 MOVI R1, 3     ; else
//	#6 STG [R0], R1
//	#7 EXIT
func diamond() *isa.Program {
	return prog(4,
		movi(1, 1),
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, SrcB: 1},
		bra(5, 6, isa.P0, true),
		movi(2, 2),
		bra(6, 6, isa.PT, false),
		movi(2, 3),
		isa.Instr{Op: isa.OpSTG, SrcA: 1, SrcB: 2},
		exit(),
	)
}

func TestCFGDiamond(t *testing.T) {
	g := flow.Build(diamond())
	// B0=[#0..#2] header, B1=[#3..#4] then, B2=[#5] else, B3=[#6..#7] join.
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4:\n%s", len(g.Blocks), g)
	}
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, b := range g.Blocks {
		if len(b.Succs) != len(wantSuccs[i]) {
			t.Errorf("B%d succs = %v, want %v", i, b.Succs, wantSuccs[i])
			continue
		}
		for j, s := range wantSuccs[i] {
			if b.Succs[j] != s {
				t.Errorf("B%d succs = %v, want %v", i, b.Succs, wantSuccs[i])
				break
			}
		}
	}
	if got := g.BlockOf(6); got != 3 {
		t.Errorf("BlockOf(6) = %d, want 3", got)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g := flow.Build(diamond())
	idom := g.Dominators()
	// Both legs and the join are dominated by the header B0 only.
	want := []int{-1, 0, 0, 0}
	for i, w := range want {
		if idom[i] != w {
			t.Errorf("idom[B%d] = %d, want %d\n%s", i, idom[i], w, g)
		}
	}
	ipdom := g.PostDominators()
	// The join block B3 post-dominates both legs and the header.
	wantP := []int{3, 3, 3, -1}
	for i, w := range wantP {
		if ipdom[i] != w {
			t.Errorf("ipdom[B%d] = %d, want %d", i, ipdom[i], w)
		}
	}
	if !flow.Dominates(idom, 0, 3) {
		t.Error("entry should dominate exit block")
	}
	if flow.Dominates(idom, 1, 3) {
		t.Error("then-leg must not dominate the join")
	}
}

func TestDefUseChains(t *testing.T) {
	p := diamond()
	du := flow.Build(p).DefUse()
	// The then-def (#3) and else-def (#5) of R2 both reach the STG use at #6.
	defs := du.Defs(6, 2)
	if len(defs) != 2 || !(defs[0] == 3 && defs[1] == 5 || defs[0] == 5 && defs[1] == 3) {
		t.Errorf("Defs(6, R2) = %v, want {3, 5}", defs)
	}
	if got := du.Uses(3); len(got) != 1 || got[0] != 6 {
		t.Errorf("Uses(3) = %v, want [6]", got)
	}
	// R1's def at #0 reaches #1, #2 is a branch (no reg uses), #6 addr use.
	if got := du.Uses(0); len(got) != 2 {
		t.Errorf("Uses(0) = %v, want two uses (#1 and #6)", got)
	}
}

func TestMaybeUndef(t *testing.T) {
	// R2 defined only on the then-leg; the join reads it on both paths.
	p := prog(4,
		movi(1, 1),
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, SrcB: 1},
		bra(4, 4, isa.P0, true), // skip the then-leg when !P0
		movi(2, 5),              // then only
		isa.Instr{Op: isa.OpSTG, SrcA: 1, SrcB: 2}, // join: R2 maybe-undef
		exit(),
	)
	du := flow.Build(p).DefUse()
	if !du.MaybeUndef(4).Has(2) {
		t.Error("R2 should be maybe-undef at the join")
	}
	if du.MaybeUndef(4).Has(1) {
		t.Error("R1 is defined on every path; must not be maybe-undef")
	}
}

func TestVariance(t *testing.T) {
	// R0 = tid (variant), R1 = constant (uniform), R2 = R0+R1 (variant),
	// P0 = R2 < R1 (variant), P1 = R1 < R1 (uniform).
	p := prog(4,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		movi(1, 10),
		iadd(2, 0, 1),
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 2, SrcB: 1},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P1, Cmp: isa.CmpLT, SrcA: 1, SrcB: 1},
		exit(),
	)
	v := flow.Build(p).Variance()
	for r, want := range []bool{true, false, true} {
		if got := v.VariantReg(isa.Reg(r)); got != want {
			t.Errorf("VariantReg(R%d) = %v, want %v", r, got, want)
		}
	}
	if !v.VariantPredAt(5, isa.P0) {
		t.Error("P0 derives from tid; should be variant")
	}
	if v.VariantPredAt(5, isa.P1) {
		t.Error("P1 derives from constants; should be uniform")
	}
}

func TestVarianceCtaUniform(t *testing.T) {
	// CTA index is uniform within a warp (all lanes share the CTA).
	p := prog(2,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRCtaIDX},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 0, SrcB: 0},
		exit(),
	)
	v := flow.Build(p).Variance()
	if v.VariantReg(0) || v.VariantPredAt(2, isa.P0) {
		t.Error("CTA-index-derived values must be warp-uniform")
	}
}

func diagRules(diags []flow.Diag) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

func hasRule(diags []flow.Diag, rule string, pc int) bool {
	for _, d := range diags {
		if d.Rule == rule && d.PC == pc {
			return true
		}
	}
	return false
}

func TestLintCleanProgram(t *testing.T) {
	// while (R1 < 10) { R1++ }: the loop-carried write at #3 is read around
	// the backedge, so it is not dead.
	//
	// #0 MOVI R1, 0
	// #1 ISETP P0 = R1 < 10
	// #2 @!P0 BRA #5 (exit loop, reconv #5)
	// #3 IADD R1 = R1 + 1    (BImm)
	// #4 BRA #1 (backedge)
	// #5 EXIT
	loop := prog(2,
		movi(1, 0),
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, BImm: true, Imm: 10},
		bra(5, 5, isa.P0, true),
		isa.Instr{Op: isa.OpIADD, Dst: 1, SrcA: 1, BImm: true, Imm: 1},
		bra(1, 5, isa.PT, false),
		exit(),
	)
	for name, p := range map[string]*isa.Program{"diamond": diamond(), "loop": loop} {
		if diags := flow.Lint(p); len(diags) != 0 {
			t.Errorf("clean %s flagged: %v", name, diags)
		}
	}
}

func TestLintStructural(t *testing.T) {
	p := prog(2,
		isa.Instr{Op: isa.Op(250)}, // bad opcode
		bra(99, 0, isa.P0, false),  // escaped target
		movi(7, 0),                 // reg >= NumRegs
		isa.Instr{Op: isa.OpMOV, Dst: 1, SrcA: 0, Pred: isa.Pred(9)}, // bad pred
		movi(1, 0), // not EXIT at the end
	)
	diags := flow.Lint(p)
	for _, want := range []struct {
		rule string
		pc   int
	}{
		{flow.RuleBadOpcode, 0},
		{flow.RuleBadBranch, 1},
		{flow.RuleRegOverflow, 2},
		{flow.RuleBadPred, 3},
		{flow.RuleMissingExit, 4},
	} {
		if !hasRule(diags, want.rule, want.pc) {
			t.Errorf("missing %s at #%d in %v", want.rule, want.pc, diagRules(diags))
		}
	}
	if !flow.HasErrors(diags) {
		t.Error("structural defects must be errors")
	}
}

func TestLintUninitRead(t *testing.T) {
	p := prog(4,
		movi(1, 1),
		iadd(2, 1, 3), // R3 never written
		isa.Instr{Op: isa.OpSTG, SrcA: 2, SrcB: 1},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleUninitRead, 1) {
		t.Fatalf("R3 read-before-def not flagged: %v", diags)
	}
}

func TestLintUninitAddressRead(t *testing.T) {
	// Loading through a never-defined address register gets the pointed
	// message naming the op.
	p := prog(4,
		isa.Instr{Op: isa.OpLDG, Dst: 1, SrcA: 3},
		isa.Instr{Op: isa.OpSTG, SrcA: 3, SrcB: 1},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleUninitRead, 0) {
		t.Fatalf("uninitialized address not flagged: %v", diags)
	}
	found := false
	for _, d := range diags {
		if d.PC == 0 && strings.Contains(d.Msg, "address register R3") {
			found = true
		}
	}
	if !found {
		t.Errorf("address-register message missing: %v", diags)
	}
}

func TestLintDeadWrite(t *testing.T) {
	p := prog(4,
		movi(1, 1),
		movi(3, 42), // dead: R3 never read
		isa.Instr{Op: isa.OpSTG, SrcA: 1, SrcB: 1},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleDeadWrite, 1) {
		t.Fatalf("dead write not flagged: %v", diags)
	}
}

func TestLintOverwrittenWriteIsDead(t *testing.T) {
	// A def killed by an unguarded redefinition before any use is dead too.
	p := prog(4,
		movi(1, 1),
		movi(1, 2),
		isa.Instr{Op: isa.OpSTG, SrcA: 1, SrcB: 1},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleDeadWrite, 0) {
		t.Fatalf("overwritten write not flagged: %v", diags)
	}
	if hasRule(diags, flow.RuleDeadWrite, 1) {
		t.Fatalf("live write wrongly flagged: %v", diags)
	}
}

func TestLintUnreachable(t *testing.T) {
	p := prog(2,
		movi(1, 1),
		bra(3, 3, isa.PT, false), // unconditional jump over #2
		movi(1, 2),               // unreachable
		isa.Instr{Op: isa.OpSTG, SrcA: 1, SrcB: 1},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleUnreachable, 2) {
		t.Fatalf("unreachable block not flagged: %v", diags)
	}
}

func TestLintBarDivergence(t *testing.T) {
	// tid-guarded branch around a BAR: classic divergent-barrier hang.
	p := prog(4,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		bra(4, 4, isa.P0, true), // @!P0 skip
		isa.Instr{Op: isa.OpBAR},
		exit(),
	)
	diags := flow.Lint(p)
	if !hasRule(diags, flow.RuleBarDiverge, 3) {
		t.Fatalf("divergent barrier not flagged: %v", diags)
	}
	for _, d := range diags {
		if d.Rule == flow.RuleBarDiverge && d.Sev != flow.Warn {
			t.Errorf("bar-divergence must be warning-severity, got %v", d.Sev)
		}
	}
}

func TestLintUniformBarNotFlagged(t *testing.T) {
	// Same shape, but the guard derives from the CTA index: uniform within
	// the warp, so every lane takes the same leg.
	p := prog(4,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRCtaIDX},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		bra(4, 4, isa.P0, true),
		isa.Instr{Op: isa.OpBAR},
		exit(),
	)
	for _, d := range flow.Lint(p) {
		if d.Rule == flow.RuleBarDiverge {
			t.Fatalf("uniform-guard barrier wrongly flagged: %v", d)
		}
	}
}

func TestLintPredReuseNotFlagged(t *testing.T) {
	// The SCP/NW reduction shape: a uniform loop guard shares its predicate
	// register with a later tid-dependent compare. Per-definition predicate
	// variance must keep the loop head uniform — a flow-insensitive bit would
	// flag the barrier and poison every shipped reduction kernel.
	//
	// #0 S2R R0, SR_TID.X
	// #1 MOVI R1, 32            ; stride
	// #2 ISETP P0 = R1 > 0      ; uniform loop guard
	// #3 @!P0 BRA #8 (reconv 8)
	// #4 BAR                    ; safe: warp re-formed at loop head
	// #5 SHR R1 = R1 >> 1
	// #6 BRA #2 (reconv 8)
	// #7 NOP                    ; unreachable filler (skipped by backedge)
	// #8 ISETP P0 = R0 == 0     ; variant reuse of P0, after the loop
	// #9 EXIT
	p := prog(2,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		movi(1, 32),
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpGT, SrcA: 1, BImm: true, Imm: 0},
		bra(8, 8, isa.P0, true),
		isa.Instr{Op: isa.OpBAR},
		isa.Instr{Op: isa.OpSHR, Dst: 1, SrcA: 1, BImm: true, Imm: 1},
		bra(2, 8, isa.PT, false),
		isa.Instr{Op: isa.OpNOP},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpEQ, SrcA: 0, BImm: true, Imm: 0},
		exit(),
	)
	for _, d := range flow.Lint(p) {
		if d.Rule == flow.RuleBarDiverge {
			t.Fatalf("uniform loop guard poisoned by predicate reuse: %v", d)
		}
	}
	v := flow.Build(p).Variance()
	if v.VariantPredAt(3, isa.P0) {
		t.Error("loop-head P0 must be uniform (only the uniform def reaches #3)")
	}
	if !v.VariantPredAt(9, isa.P0) {
		t.Error("post-loop P0 must be variant (tid def reaches #9)")
	}
}

func TestLintBarAfterReconvNotFlagged(t *testing.T) {
	// A BAR at the reconvergence point is safe: the warp has re-formed.
	p := prog(4,
		isa.Instr{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		isa.Instr{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		bra(4, 4, isa.P0, true),
		movi(1, 1),               // divergent region
		isa.Instr{Op: isa.OpBAR}, // reconverged
		exit(),
	)
	for _, d := range flow.Lint(p) {
		if d.Rule == flow.RuleBarDiverge {
			t.Fatalf("post-reconvergence barrier wrongly flagged: %v", d)
		}
	}
}

func TestLintDiagStringStable(t *testing.T) {
	d := flow.Diag{PC: 3, Rule: flow.RuleDeadWrite, Sev: flow.Error, Msg: "R1 is written here but the value is never read"}
	want := "#3 error dead-write: R1 is written here but the value is never read"
	if got := d.String(); got != want {
		t.Errorf("Diag.String() = %q, want %q", got, want)
	}
}

func TestCFGStringAndDot(t *testing.T) {
	g := flow.Build(diamond())
	s := g.String()
	if !strings.Contains(s, "B0") || !strings.Contains(s, "idom") {
		t.Errorf("String() missing structure:\n%s", s)
	}
	dot := g.Dot()
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "b0 -> b1") && !strings.Contains(dot, "b0 -> b3") {
		t.Errorf("Dot() missing edges:\n%s", dot)
	}
}

func TestEmptyProgram(t *testing.T) {
	p := prog(1)
	diags := flow.Lint(p)
	if len(diags) != 1 || diags[0].Rule != flow.RuleMissingExit {
		t.Fatalf("empty program: %v", diags)
	}
	g := flow.Build(p)
	if len(g.Blocks) != 0 {
		t.Fatal("empty program should have no blocks")
	}
	g.DefUse()
	g.Dominators()
	g.PostDominators()
}
