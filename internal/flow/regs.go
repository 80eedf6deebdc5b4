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
// unguarded write that overwrites the old value on every lane. Guarded
// writes may leave the old value intact on some lanes, so they define
// without killing the reaching definitions before them.
func def(ins *isa.Instr) (r isa.Reg, ok, must bool) {
	if neverExec(ins) || !ins.Writing() {
		return 0, false, false
	}
	return ins.Dst, true, alwaysExec(ins)
}
