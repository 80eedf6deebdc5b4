package flow

import (
	"fmt"
	"sort"

	"gpurel/internal/isa"
)

// Severity grades a diagnostic. Errors are defects no correct kernel should
// contain; warnings flag constructs that are only conditionally safe (e.g. a
// barrier whose safety depends on runtime-uniform guards).
type Severity uint8

// Severities.
const (
	Warn Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diag is one linter finding, anchored at a PC.
type Diag struct {
	PC   int
	Rule string
	Sev  Severity
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("#%d %s %s: %s", d.PC, d.Sev, d.Rule, d.Msg)
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diag) bool {
	for _, d := range diags {
		if d.Sev == Error {
			return true
		}
	}
	return false
}

// Lint rule names, exported so callers can filter.
const (
	RuleBadOpcode   = "bad-opcode"
	RuleBadBranch   = "bad-branch"
	RuleBadPred     = "bad-pred"
	RuleRegOverflow = "reg-overflow"
	RuleMissingExit = "missing-exit"
	RuleUnreachable = "unreachable"
	RuleUninitRead  = "uninit-read"
	RuleDeadWrite   = "dead-write"
	RuleBarDiverge  = "bar-divergence"

	// CheckSync rules (sync.go).
	RuleSmemSync     = "smem-sync"
	RuleBarRedundant = "bar-redundant"
)

// Lint statically checks a kernel program and returns its findings sorted by
// PC. Structural defects (bad opcodes, escaped branches, out-of-range
// registers or predicates, missing EXIT) are reported first; when any are
// present the dataflow rules are skipped, since their results would describe
// a program that cannot run anyway.
func Lint(p *isa.Program) []Diag {
	var diags []Diag
	emit := func(pc int, rule string, sev Severity, format string, args ...any) {
		diags = append(diags, Diag{PC: pc, Rule: rule, Sev: sev, Msg: fmt.Sprintf(format, args...)})
	}

	if len(p.Code) == 0 {
		emit(0, RuleMissingExit, Error, "empty program")
		return diags
	}

	// Structural pass.
	structuralOK := true
	var srcs []isa.Reg
	checkReg := func(pc int, r isa.Reg, what string) {
		if r == isa.RZ {
			return
		}
		if int(r) >= p.NumRegs {
			structuralOK = false
			emit(pc, RuleRegOverflow, Error,
				"%s R%d is past the declared register count (NumRegs=%d)", what, r, p.NumRegs)
		}
	}
	checkPred := func(pc int, pr isa.Pred, what string) {
		if int(pr) > isa.NumPreds {
			structuralOK = false
			emit(pc, RuleBadPred, Error, "%s predicate %d out of range (P0..P6)", what, pr)
		}
	}
	for pc := range p.Code {
		ins := &p.Code[pc]
		if !ins.Op.Known() {
			structuralOK = false
			emit(pc, RuleBadOpcode, Error, "unknown opcode %d", uint8(ins.Op))
			continue
		}
		if ins.Op == isa.OpBRA {
			if ins.Target < 0 || ins.Target >= len(p.Code) {
				structuralOK = false
				emit(pc, RuleBadBranch, Error, "branch target %d escapes the program (%d instructions)", ins.Target, len(p.Code))
			}
			if ins.Reconv < 0 || ins.Reconv > len(p.Code) {
				structuralOK = false
				emit(pc, RuleBadBranch, Error, "reconvergence point %d escapes the program", ins.Reconv)
			}
		}
		if ins.Writing() {
			checkReg(pc, ins.Dst, "destination")
		}
		srcs = ins.SrcRegs(srcs[:0])
		for _, r := range srcs {
			checkReg(pc, r, "source")
		}
		checkPred(pc, ins.Pred, "guard")
		switch ins.Op {
		case isa.OpISETP, isa.OpFSETP:
			checkPred(pc, ins.PDst, "destination")
			checkPred(pc, ins.CPred, "combining")
		case isa.OpSEL:
			checkPred(pc, ins.SelPred, "select")
		}
	}
	if last := &p.Code[len(p.Code)-1]; last.Op != isa.OpEXIT || !alwaysExec(last) {
		structuralOK = false
		emit(len(p.Code)-1, RuleMissingExit, Error, "program does not end with an unguarded EXIT")
	}
	if !structuralOK {
		sortDiags(diags)
		return diags
	}

	g := Build(p)
	reach := g.Reachable()
	du := g.DefUse()
	va := g.Variance()

	// Unreachable blocks.
	for i, b := range g.Blocks {
		if !reach[i] {
			emit(b.Start, RuleUnreachable, Error,
				"block B%d (#%d..#%d) is unreachable from the entry", b.ID, b.Start, b.End-1)
		}
	}

	for pc := range p.Code {
		ins := &p.Code[pc]
		if !reach[g.BlockOf(pc)] {
			continue // already reported as unreachable
		}

		// Uninitialized reads: a source register with a def-free path from
		// the entry. Address operands of memory accesses are called out —
		// a wild pointer is how a flipped program escapes its allocations.
		undef := du.MaybeUndef(pc)
		srcs = uses(ins, srcs[:0])
		for _, r := range srcs {
			if !undef.Has(r) {
				continue
			}
			if ins.IsMem() && r == ins.SrcA {
				emit(pc, RuleUninitRead, Error,
					"%s address register R%d may be read before any definition", ins.Op, r)
			} else {
				emit(pc, RuleUninitRead, Error,
					"R%d may be read before any definition", r)
			}
		}

		// Dead writes: a definition no use can observe.
		if _, ok, _ := def(ins); ok {
			if du.defOf[pc] >= 0 && len(du.Uses(pc)) == 0 {
				emit(pc, RuleDeadWrite, Error,
					"R%d is written here but the value is never read", ins.Dst)
			}
		}
	}

	// Barriers under potentially divergent control flow: a BAR inside the
	// region between a variant branch and its reconvergence point can be
	// reached by a strict subset of the warp — the simulator raises a DUE
	// when that actually happens (exec.ErrBarrierDivergence). Warning-class:
	// the guard may be dynamically uniform (e.g. a bounds check that always
	// passes for full blocks).
	for pc := range p.Code {
		if !reach[g.BlockOf(pc)] || !va.Divergent(pc) {
			continue
		}
		for _, barPC := range divergentRegionBARs(g, pc) {
			emit(barPC, RuleBarDiverge, Warn,
				"BAR inside the divergent region of the branch at #%d (guard %s may differ across lanes)",
				pc, guardName(&p.Code[pc]))
		}
	}

	// Shared-memory synchronization rules (sync.go): provable cross-thread
	// read/write pairs with no intervening BAR, and barriers that cannot
	// order any shared-memory traffic.
	diags = append(diags, checkSync(g, du)...)

	sortDiags(diags)
	return diags
}

// InitClean reports whether Lint proves that p reads no register before
// defining it: the program is structurally sound (so the dataflow rules ran)
// and draws no uninit-read diagnostic. The simulator consults it, with a
// dynamic check for shared memory, before it treats storage a retired CTA
// frees as dead.
func InitClean(p *isa.Program) bool {
	for _, d := range Lint(p) {
		switch d.Rule {
		case RuleUninitRead, RuleBadOpcode, RuleBadBranch, RuleBadPred, RuleRegOverflow, RuleMissingExit:
			return false
		}
	}
	return true
}

func guardName(ins *isa.Instr) string {
	s := fmt.Sprintf("P%d", int(ins.Pred)-1)
	if ins.PredNeg {
		return "!" + s
	}
	return s
}

// divergentRegionBARs walks the CFG from both legs of the branch at pc,
// stopping at the reconvergence block, and returns the PCs of BAR
// instructions inside the region.
func divergentRegionBARs(g *Graph, pc int) []int {
	ins := &g.Prog.Code[pc]
	stopBlock := -1
	if ins.Reconv >= 0 && ins.Reconv < len(g.Prog.Code) {
		stopBlock = g.BlockOf(ins.Reconv)
	}
	seen := make([]bool, len(g.Blocks))
	var stack []int
	push := func(b int) {
		if b >= 0 && b != stopBlock && !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
	}
	for _, s := range g.Blocks[g.BlockOf(pc)].Succs {
		push(s)
	}
	var bars []int
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk := &g.Blocks[b]
		for p := blk.Start; p < blk.End; p++ {
			if g.Prog.Code[p].Op == isa.OpBAR {
				bars = append(bars, p)
			}
		}
		for _, s := range blk.Succs {
			push(s)
		}
	}
	sort.Ints(bars)
	return bars
}

func sortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].PC != diags[j].PC {
			return diags[i].PC < diags[j].PC
		}
		return diags[i].Rule < diags[j].Rule
	})
}
