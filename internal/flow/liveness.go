package flow

import "gpurel/internal/isa"

// RegSet is a bitset over the architectural general-purpose registers
// R0..R255. RZ is never a member (it is not storage).
type RegSet [4]uint64

func regIndex(r isa.Reg) (int, bool) {
	if r == isa.RZ || int(r) > isa.MaxRegs {
		return 0, false
	}
	return int(r), true
}

func (s *RegSet) add(r isa.Reg) {
	if i, ok := regIndex(r); ok {
		s[i>>6] |= 1 << (i & 63)
	}
}

func (s *RegSet) remove(r isa.Reg) {
	if i, ok := regIndex(r); ok {
		s[i>>6] &^= 1 << (i & 63)
	}
}

// Has reports whether the register is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	i, ok := regIndex(r)
	return ok && s[i>>6]&(1<<(i&63)) != 0
}

// union sets s |= t and reports whether s changed.
func (s *RegSet) union(t RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | t[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Regs lists the members in ascending order.
func (s RegSet) Regs() []isa.Reg {
	var out []isa.Reg
	for w := 0; w < len(s); w++ {
		for bits := s[w]; bits != 0; bits &= bits - 1 {
			tz := 0
			for b := bits; b&1 == 0; b >>= 1 {
				tz++
			}
			out = append(out, isa.Reg(w*64+tz))
		}
	}
	return out
}

// uses appends the GPR sources the instruction may read at runtime. A
// constant-false guard (@!PT) means the instruction never executes and so
// never reads.
func uses(ins *isa.Instr, dst []isa.Reg) []isa.Reg {
	if neverExec(ins) {
		return dst
	}
	return ins.SrcRegs(dst)
}

// def returns the GPR the instruction writes (ok=false when it writes none
// or can never execute), and whether the write is a *must* write — an
// unguarded write that overwrites the old value on every lane, killing
// liveness. Guarded writes may leave the old value intact on some lanes, so
// they define without killing.
func def(ins *isa.Instr) (r isa.Reg, ok, must bool) {
	if neverExec(ins) || !ins.Writing() {
		return 0, false, false
	}
	return ins.Dst, true, alwaysExec(ins)
}

// Liveness holds per-PC live-register sets: In(pc) is live just before the
// instruction executes, Out(pc) just after. A register is live when some
// path from that point reads it before any unguarded overwrite.
type Liveness struct {
	g   *Graph
	in  []RegSet // per pc
	out []RegSet // per pc
}

// Liveness runs backward liveness to fixpoint over the CFG.
func (g *Graph) Liveness() *Liveness {
	n := len(g.Prog.Code)
	lv := &Liveness{g: g, in: make([]RegSet, n), out: make([]RegSet, n)}
	nb := len(g.Blocks)
	if nb == 0 {
		return lv
	}

	// Block-level fixpoint on live-in sets.
	blockIn := make([]RegSet, nb)
	var scratch []isa.Reg
	transfer := func(b *Block, live RegSet) RegSet {
		for pc := b.End - 1; pc >= b.Start; pc-- {
			ins := &g.Prog.Code[pc]
			if r, ok, must := def(ins); ok && must {
				live.remove(r)
			}
			scratch = uses(ins, scratch[:0])
			for _, r := range scratch {
				live.add(r)
			}
		}
		return live
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := &g.Blocks[i]
			var liveOut RegSet
			for _, s := range b.Succs {
				liveOut.union(blockIn[s])
			}
			in := transfer(b, liveOut)
			if blockIn[i].union(in) {
				changed = true
			}
		}
	}

	// Final per-PC pass.
	for i := range g.Blocks {
		b := &g.Blocks[i]
		var live RegSet
		for _, s := range b.Succs {
			live.union(blockIn[s])
		}
		for pc := b.End - 1; pc >= b.Start; pc-- {
			lv.out[pc] = live
			ins := &g.Prog.Code[pc]
			if r, ok, must := def(ins); ok && must {
				live.remove(r)
			}
			scratch = uses(ins, scratch[:0])
			for _, r := range scratch {
				live.add(r)
			}
			lv.in[pc] = live
		}
	}
	return lv
}

// In returns the registers live immediately before pc.
func (l *Liveness) In(pc int) RegSet { return l.in[pc] }

// Out returns the registers live immediately after pc.
func (l *Liveness) Out(pc int) RegSet { return l.out[pc] }
