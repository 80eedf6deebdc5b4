// Control-state faults: upsets in machine state held in flip-flops rather
// than SRAM arrays — warp-scheduler entries, SIMT divergence-stack entries,
// and CTA barrier latches. Which of the three classes an experiment hits is
// the target *structure* (gpu.Sched/Stack/Barrier), chosen exactly like a
// storage structure; the model only decides persistence (one-shot flip vs
// permanently forced latch). Flip-flops carry no ECC word, so these faults
// bypass the SEC-DED preflight screen entirely.
package faultmodel

import (
	"math/rand"

	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// ControlFault upsets one control-state bit. Stuck == nil is a transient
// flip of the latch; Stuck == 0/1 forces the latch to that value for the
// rest of the run (a permanent defect in the flip-flop), at the top of every
// cycle in which the machine can have changed — bit-identical to every
// cycle. A latch that parks every resident warp for good leaves nothing that
// could change the machine, and the run goes straight to its Timeout.
type ControlFault struct{ Stuck *int }

// Name implements Model.
func (c ControlFault) Name() string {
	if c.Stuck != nil {
		return "control-stuck"
	}
	return ModelControl
}

// Persistent implements Model.
func (c ControlFault) Persistent() bool { return c.Stuck != nil }

// WordBits implements Model: 0 — flip-flop state is outside ECC protection.
func (c ControlFault) WordBits() int { return 0 }

// Arm implements Model. Sites are addressed physically — (SM, warp slot,
// field) — so a persistent defect stays with the hardware slot across CTA
// retirement: appliers re-resolve the slot on every call and no-op while it
// is unoccupied (or, for stack faults, while the addressed entry has popped).
//
// Draw order per class (all uniform):
//   - Sched:   global slot k over Σ NumWarpSlots, then bit over the
//     17-bit scheduler entry (ready timestamp low bits + done latch).
//   - Stack:   global entry k over Σ stack depths, then word (mask/PC/RPC),
//     then bit over 32.
//   - Barrier: global slot k (the arrival latch is a single bit).
func (c ControlFault) Arm(m *sim.Machine, s gpu.Structure, rng *rand.Rand) (Applier, bool) {
	switch s {
	case gpu.Sched:
		smIdx, slot, ok := pickSlot(m, rng)
		if !ok {
			return nil, false
		}
		bit := uint(rng.Intn(sim.SchedEntryBits))
		if c.Stuck == nil {
			wc, _ := m.SMs[smIdx].WarpSlot(slot)
			wc.FlipSchedBit(bit)
			return nil, true
		}
		v := *c.Stuck == 1
		ap := func(m *sim.Machine) {
			if wc, ok := m.SMs[smIdx].WarpSlot(slot); ok {
				wc.ForceSchedBit(bit, v)
			}
		}
		ap(m)
		return ap, true

	case gpu.Stack:
		smIdx, slot, entry, ok := pickStackEntry(m, rng)
		if !ok {
			return nil, false
		}
		word := rng.Intn(sim.StackEntryWords)
		bit := uint(rng.Intn(32))
		if c.Stuck == nil {
			wc, _ := m.SMs[smIdx].WarpSlot(slot)
			wc.FlipStackBit(entry, word, bit)
			return nil, true
		}
		v := *c.Stuck == 1
		ap := func(m *sim.Machine) {
			if wc, ok := m.SMs[smIdx].WarpSlot(slot); ok {
				wc.ForceStackBit(entry, word, bit, v)
			}
		}
		ap(m)
		return ap, true

	case gpu.Barrier:
		smIdx, slot, ok := pickSlot(m, rng)
		if !ok {
			return nil, false
		}
		if c.Stuck == nil {
			wc, _ := m.SMs[smIdx].WarpSlot(slot)
			wc.FlipBarrier()
			return nil, true
		}
		v := *c.Stuck == 1
		ap := func(m *sim.Machine) {
			if wc, ok := m.SMs[smIdx].WarpSlot(slot); ok {
				wc.ForceBarrier(v)
			}
		}
		ap(m)
		return ap, true
	}
	return nil, false
}

// pickSlot draws a uniform resident warp slot across all SMs (SMs in index
// order, slots in scheduler scan order) and returns its (SM index, local
// slot index). ok is false when no warps are resident.
func pickSlot(m *sim.Machine, rng *rand.Rand) (int, int, bool) {
	total := 0
	for _, sm := range m.SMs {
		total += sm.NumWarpSlots()
	}
	if total == 0 {
		return 0, 0, false
	}
	k := rng.Intn(total)
	for i, sm := range m.SMs {
		n := sm.NumWarpSlots()
		if k < n {
			return i, k, true
		}
		k -= n
	}
	panic("faultmodel: slot selection overran the resident warps")
}

// pickStackEntry draws a uniform divergence-stack entry across every
// resident warp's stack and returns (SM index, slot, entry index). ok is
// false when every resident stack is empty.
func pickStackEntry(m *sim.Machine, rng *rand.Rand) (int, int, int, bool) {
	total := 0
	for _, sm := range m.SMs {
		for i, n := 0, sm.NumWarpSlots(); i < n; i++ {
			wc, _ := sm.WarpSlot(i)
			total += wc.StackDepth()
		}
	}
	if total == 0 {
		return 0, 0, 0, false
	}
	k := rng.Intn(total)
	for si, sm := range m.SMs {
		for i, n := 0, sm.NumWarpSlots(); i < n; i++ {
			wc, _ := sm.WarpSlot(i)
			d := wc.StackDepth()
			if k < d {
				return si, i, k, true
			}
			k -= d
		}
	}
	panic("faultmodel: stack-entry selection overran the resident stacks")
}
