package uop

import "gpurel/internal/exec"

// Status is what Issue did with a warp's next µop.
type Status uint8

// Issue outcomes.
const (
	// Data: the µop at pc is a data µop (any kind but the four control
	// kinds, KDrop included) and mask holds the lanes that execute it.
	// Issue has changed nothing; the executor runs the µop and, unless a
	// lane faulted, moves the warp past it with exec.Warp.Advance.
	Data Status = iota
	// Done: Issue executed a BRA, a NOP or an EXIT that left lanes alive.
	Done
	// Exited: the warp has no live lane left. An EXIT at pc retired the
	// last ones, or (pc -1) the warp had none when Issue was called.
	Exited
	// Barrier: every live lane arrived at the BAR at pc. The warp stays on
	// it until its CTA releases the barrier with exec.Warp.Advance.
	Barrier
	// BadPC: control left the program at pc (-1: the stack emptied while
	// lanes were alive); the executor reports exec.ErrBadPC.
	BadPC
	// Diverged: the BAR at pc was reached with live lanes inactive; the
	// executor reports exec.ErrBarrierDivergence.
	Diverged
)

// Issue is the control half of one SIMT step, the same for both simulators
// and bit for bit exec.Step's: it normalises w's reconvergence stack, checks
// the PC, evaluates the guard of the µop at the top of the stack over the
// entry's live lanes (reading predicates through f), and executes the
// control kinds — BRA with its divergence pushes, EXIT, BAR, NOP. A data µop
// it leaves to the caller, which alone knows its memory.
func (p *Program) Issue(w *exec.Warp, f *Frame) (pc int32, mask uint32, st Status) {
	w.Normalize()
	if len(w.Stack) == 0 {
		if w.Done() {
			return -1, 0, Exited
		}
		return -1, 0, BadPC
	}
	top := &w.Stack[len(w.Stack)-1]
	pc = top.PC
	if pc < 0 || int(pc) >= len(p.Ops) {
		return pc, 0, BadPC
	}
	u := &p.Ops[pc]
	live := top.Mask &^ w.Exited

	mask = live
	if gb := u.GuardBit; gb != 0 {
		mask = 0
		for lane, m := 0, live; m != 0; lane, m = lane+1, m>>1 {
			if m&1 != 0 && (f.Preds[f.TBase+lane]&gb != 0) != u.GuardNeg {
				mask |= 1 << lane
			}
		}
	} else if u.GuardNeg {
		mask = 0 // "@!PT": a constant-false guard
	}

	switch u.Kind {
	case KBra:
		switch notTaken := live &^ mask; {
		case mask == 0:
			top.PC = pc + 1
		case notTaken == 0:
			top.PC = u.Target
		default:
			// Divergence: the entry waits at the reconvergence point while
			// the taken lanes run first, then the fall-through lanes.
			top.PC = u.Reconv
			w.Stack = append(w.Stack,
				exec.Ent{Mask: notTaken, PC: pc + 1, RPC: u.Reconv},
				exec.Ent{Mask: mask, PC: u.Target, RPC: u.Reconv},
			)
		}
	case KExit:
		w.Exited |= mask
		top.PC = pc + 1
		w.Normalize()
		if w.Done() {
			return pc, mask, Exited
		}
	case KBar:
		if mask != w.FullMask&^w.Exited {
			return pc, mask, Diverged
		}
		return pc, mask, Barrier
	case KNop:
		top.PC = pc + 1
	default:
		return pc, mask, Data
	}
	return pc, mask, Done
}
