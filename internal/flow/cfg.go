// Package flow implements static program analysis over isa.Program: basic
// block control-flow graphs, dominator and post-dominator trees, backward
// liveness, reaching definitions with def-use chains, and a thread-variance
// (divergence) analysis. On top of these it provides a kernel linter (Lint)
// and the cycle-interval ACE engine (Intervals) that lets the fault-injection
// layer classify injections into provably dead intervals as Masked without
// simulating them.
//
// All analyses are pure functions of the instruction stream; they tolerate
// malformed programs (out-of-range branches, bad register indices) so the
// linter can describe them instead of crashing.
package flow

import (
	"fmt"
	"strings"

	"gpurel/internal/isa"
)

// Block is one basic block: the half-open instruction range [Start, End) and
// its CFG edges, both as block IDs.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int
	Preds []int
}

// Graph is the control-flow graph of a program.
type Graph struct {
	Prog    *isa.Program
	Blocks  []Block
	blockOf []int // pc -> block ID
}

// neverExec reports whether the instruction can never execute: a guard of
// @!PT is constant-false, so the instruction is an elaborate NOP.
func neverExec(ins *isa.Instr) bool {
	return ins.Pred == isa.PT && ins.PredNeg
}

// alwaysExec reports whether the guard is constant-true (@PT), i.e. the
// instruction executes on every active lane.
func alwaysExec(ins *isa.Instr) bool {
	return ins.Pred == isa.PT && !ins.PredNeg
}

// terminates reports whether the instruction ends a basic block.
func terminates(ins *isa.Instr) bool {
	return ins.Op == isa.OpBRA || ins.Op == isa.OpEXIT
}

// Build constructs the CFG. Branch targets and reconvergence points are block
// leaders; BRA and EXIT terminate blocks. Out-of-range targets simply
// produce no edge (the linter reports them separately).
func Build(p *isa.Program) *Graph {
	n := len(p.Code)
	g := &Graph{Prog: p, blockOf: make([]int, n)}
	if n == 0 {
		return g
	}

	leader := make([]bool, n)
	leader[0] = true
	for pc := range p.Code {
		ins := &p.Code[pc]
		if ins.Op == isa.OpBRA {
			if ins.Target >= 0 && ins.Target < n {
				leader[ins.Target] = true
			}
			if ins.Reconv >= 0 && ins.Reconv < n {
				leader[ins.Reconv] = true
			}
		}
		if terminates(ins) && pc+1 < n {
			leader[pc+1] = true
		}
	}

	for pc := 0; pc < n; {
		start := pc
		id := len(g.Blocks)
		for {
			g.blockOf[pc] = id
			pc++
			if pc >= n || leader[pc] || terminates(&p.Code[pc-1]) {
				break
			}
		}
		g.Blocks = append(g.Blocks, Block{ID: id, Start: start, End: pc})
	}

	addEdge := func(from, toPC int) {
		if toPC < 0 || toPC >= n {
			return // escapes the program; lint reports it
		}
		to := g.blockOf[toPC]
		b := &g.Blocks[from]
		for _, s := range b.Succs {
			if s == to {
				return
			}
		}
		b.Succs = append(b.Succs, to)
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
	}

	for i := range g.Blocks {
		b := &g.Blocks[i]
		last := &p.Code[b.End-1]
		switch {
		case last.Op == isa.OpBRA:
			switch {
			case alwaysExec(last): // unconditional: taken by every lane
				addEdge(i, last.Target)
			case neverExec(last): // @!PT: never taken
				addEdge(i, b.End)
			default: // guarded: both legs are possible
				addEdge(i, last.Target)
				addEdge(i, b.End)
			}
		case last.Op == isa.OpEXIT:
			if !alwaysExec(last) {
				// A guarded EXIT retires only the lanes whose guard holds;
				// the rest continue at the next instruction.
				addEdge(i, b.End)
			}
		default:
			addEdge(i, b.End)
		}
	}
	return g
}

// BlockOf returns the ID of the block containing pc.
func (g *Graph) BlockOf(pc int) int { return g.blockOf[pc] }

// Entry returns the entry block ID (0), or -1 for an empty program.
func (g *Graph) Entry() int {
	if len(g.Blocks) == 0 {
		return -1
	}
	return 0
}

// Reachable returns, per block, whether it is reachable from the entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// String renders the block structure, one block per line with successors —
// the textual form behind `gpudis -cfg`.
func (g *Graph) String() string {
	idom := g.Dominators()
	ipdom := g.PostDominators()
	name := func(id int) string {
		if id < 0 {
			return "-"
		}
		return fmt.Sprintf("B%d", id)
	}
	var sb strings.Builder
	for _, b := range g.Blocks {
		succs := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = name(s)
		}
		sl := strings.Join(succs, " ")
		if sl == "" {
			sl = "exit"
		}
		fmt.Fprintf(&sb, "B%-3d #%d..#%d  -> %-12s idom %-4s ipdom %s\n",
			b.ID, b.Start, b.End-1, sl, name(idom[b.ID]), name(ipdom[b.ID]))
	}
	return sb.String()
}

// Dot renders the CFG in Graphviz dot syntax, one node per basic block with
// its disassembly as the label.
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", g.Prog.Name)
	for _, b := range g.Blocks {
		var label strings.Builder
		fmt.Fprintf(&label, "B%d\\n", b.ID)
		for pc := b.Start; pc < b.End; pc++ {
			ins := g.Prog.Code[pc].String()
			ins = strings.ReplaceAll(ins, `"`, `\"`)
			fmt.Fprintf(&label, "#%d %s\\l", pc, ins)
		}
		fmt.Fprintf(&sb, "  b%d [label=\"%s\"];\n", b.ID, label.String())
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, "  b%d -> b%d;\n", b.ID, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
