// Storage-array fault models: the transient flip (the legacy injector,
// refactored behind the Model interface), the permanent stuck-at cell, and
// the spatially-correlated multi-bit upset. All three share one site
// distribution per structure — uniform over currently-allocated entries for
// RF and shared memory (the gpuFI-4 constraint, corrected by the derating
// factor), uniform over the whole data array for caches — and draw from the
// rand stream in the same order (row index, then bit index), so campaigns
// differ only in the fault's footprint and persistence, never in where
// faults land.
package faultmodel

import (
	"fmt"
	"math/rand"

	"gpurel/internal/gpu"
	"gpurel/internal/mem"
	"gpurel/internal/sim"
)

// Transient is the paper's particle-strike model: Width adjacent bits of
// one word flipped once at the injection cycle (Width ≤ 1 is the classic
// single-bit upset). It reproduces the historical injector draw-for-draw.
type Transient struct{ Width int }

// Name implements Model.
func (t Transient) Name() string { return ModelTransient }

// Persistent implements Model: a strike corrupts state once.
func (t Transient) Persistent() bool { return false }

// WordBits implements Model.
func (t Transient) WordBits() int {
	if t.Width < 1 {
		return 1
	}
	return t.Width
}

// Arm implements Model.
func (t Transient) Arm(m *sim.Machine, s gpu.Structure, rng *rand.Rand) (Applier, bool) {
	site, ok := pickStorageSite(m, s, rng)
	if !ok {
		return nil, false
	}
	site.flip(t.WordBits(), 1)
	return nil, true
}

// FlipAt applies the strike to a site that was already drawn: the pruned
// injectors resolve it by replaying Arm's draws against a recorded
// timeline, then corrupt the machine here exactly as Arm would have. For RF
// and SMEM idx is an entry of SM sm and off is unused; for caches idx is a
// line of SM sm's L1D or L1T, or of the L2 (sm unused), and off the byte
// within it.
func (t Transient) FlipAt(m *sim.Machine, s gpu.Structure, sm, idx int, off uint32, bit uint) {
	site := siteAt(m, s, sm, idx, off, bit)
	site.flip(t.WordBits(), 1)
}

// StuckAt is a permanent defect: one cell forced to V (0 or 1) from the
// injection cycle to the end of the run, at the top of every cycle in which
// the machine can have changed — bit-identical to forcing it every cycle,
// since a cell nothing wrote still holds V. Re-assertion happens at cycle
// granularity — a write lands, then the top of the next cycle forces the
// cell back, matching a defective cell read strictly after the fault
// re-manifests.
type StuckAt struct{ V int }

// Name implements Model.
func (s StuckAt) Name() string { return fmt.Sprintf("stuck%d", s.V) }

// Persistent implements Model.
func (s StuckAt) Persistent() bool { return true }

// WordBits implements Model: one defective cell per word, corrected by
// SEC-DED on every read.
func (s StuckAt) WordBits() int { return 1 }

// Arm implements Model. The site is a physical cell: if the owning CTA
// retires and another allocation takes the cell, the defect applies to the
// new occupant.
func (s StuckAt) Arm(m *sim.Machine, st gpu.Structure, rng *rand.Rand) (Applier, bool) {
	site, ok := pickStorageSite(m, st, rng)
	if !ok {
		return nil, false
	}
	v := s.V == 1
	ap := func(*sim.Machine) { site.force(v) }
	ap(m)
	return ap, true
}

// SpatialMBU is a spatially-correlated multi-bit upset: Width adjacent bits
// flipped in each of Lines adjacent rows (physical registers, shared-memory
// bytes, or cache lines), once. Rows past the end of the array are clamped
// — the cluster is a physical neighbourhood, so it may spill into cells the
// running kernel never allocated; those flips are real but unobservable.
// SpatialMBU{Width: w, Lines: 1} is bit-identical to Transient{Width: w},
// which is what Spec.Build returns for it.
type SpatialMBU struct{ Width, Lines int }

// Name implements Model.
func (s SpatialMBU) Name() string { return ModelMBU }

// Persistent implements Model.
func (s SpatialMBU) Persistent() bool { return false }

// WordBits implements Model: each affected ECC word sees Width adjacent
// bits, so the SEC-DED screen keys on Width alone regardless of Lines.
func (s SpatialMBU) WordBits() int {
	if s.Width < 1 {
		return 1
	}
	return s.Width
}

// Arm implements Model.
func (s SpatialMBU) Arm(m *sim.Machine, st gpu.Structure, rng *rand.Rand) (Applier, bool) {
	site, ok := pickStorageSite(m, st, rng)
	if !ok {
		return nil, false
	}
	site.flip(s.WordBits(), max(s.Lines, 1))
	return nil, true
}

// storageSite is one drawn cell of a storage array, with enough context to
// corrupt it and its spatial neighbours.
type storageSite struct {
	structure gpu.Structure
	sm        *sim.SM    // RF/SMEM
	cache     *mem.Cache // L1D/L1T/L2
	idx       int        // register / byte index within the SM array, or cache line
	off       uint32     // byte within the cache line
	bit       uint
}

// siteAt resolves a drawn site to the machine's storage (see FlipAt).
func siteAt(m *sim.Machine, s gpu.Structure, sm, idx int, off uint32, bit uint) storageSite {
	site := storageSite{structure: s, idx: idx, off: off, bit: bit}
	switch s {
	case gpu.RF, gpu.SMEM:
		site.sm = m.SMs[sm]
	case gpu.L1D:
		site.cache = m.SMs[sm].L1D
	case gpu.L1T:
		site.cache = m.SMs[sm].L1T
	case gpu.L2:
		site.cache = m.L2
	}
	return site
}

// pickStorageSite draws a uniform site within structure s, consuming the
// rand stream exactly as the historical injector did: RF/SMEM draw
// (entry, bit) over the allocated blocks; caches draw (sm,) line, offset,
// bit over the whole array. ok is false when nothing is allocated at this
// cycle (RF/SMEM only).
func pickStorageSite(m *sim.Machine, s gpu.Structure, rng *rand.Rand) (storageSite, bool) {
	switch s {
	case gpu.RF, gpu.SMEM:
		blocksOf, bits := (*sim.SM).AllocatedRF, 32
		if s == gpu.SMEM {
			blocksOf, bits = (*sim.SM).AllocatedSmem, 8
		}
		sm, e, ok := pickAllocated(m, rng, blocksOf, bits)
		if !ok {
			return storageSite{}, false
		}
		return siteAt(m, s, sm, e.k, 0, e.bit), true
	case gpu.L1D, gpu.L1T, gpu.L2:
		sm := 0
		if s != gpu.L2 {
			sm = rng.Intn(len(m.SMs))
		}
		site := siteAt(m, s, sm, 0, 0, 0)
		site.idx = rng.Intn(site.cache.NumLines())
		site.off = uint32(rng.Intn(int(site.cache.LineSize())))
		site.bit = uint(rng.Intn(8))
		return site, true
	}
	return storageSite{}, false
}

// drawnEntry is the (entry index within its SM, bit) pair drawn for an
// allocated-array site.
type drawnEntry struct {
	k   int
	bit uint
}

// pickAllocated draws uniformly over the allocated blocks of every SM
// (SMs in index order, blocks in CTA placement order — the enumeration the
// pruned injectors replay against their liveness timelines) and returns
// the owning SM index with the resolved entry.
func pickAllocated(m *sim.Machine, rng *rand.Rand, blocksOf func(*sim.SM) []sim.RFBlock, bits int) (int, drawnEntry, bool) {
	type smBlock struct {
		sm  int
		blk sim.RFBlock
	}
	var blocks []smBlock
	total := 0
	for i, sm := range m.SMs {
		for _, b := range blocksOf(sm) {
			blocks = append(blocks, smBlock{i, b})
			total += b.Size
		}
	}
	if total == 0 {
		return 0, drawnEntry{}, false
	}
	k := rng.Intn(total)
	bit := uint(rng.Intn(bits))
	for _, sb := range blocks {
		if k < sb.blk.Size {
			return sb.sm, drawnEntry{k: sb.blk.Base + k, bit: bit}, true
		}
		k -= sb.blk.Size
	}
	panic("faultmodel: site selection overran the allocated blocks")
}

// flip XORs width adjacent bits in each of lines adjacent rows starting at
// the site, clamping rows at the array boundary. With lines=1 it matches
// the historical burst flip bit-for-bit.
func (st storageSite) flip(width, lines int) {
	switch st.structure {
	case gpu.RF:
		for l := 0; l < lines && st.idx+l < len(st.sm.RF); l++ {
			for w := 0; w < width; w++ {
				st.sm.RF[st.idx+l] ^= 1 << ((st.bit + uint(w)) % 32)
			}
			st.sm.MarkRF(st.idx + l)
		}
	case gpu.SMEM:
		for l := 0; l < lines && st.idx+l < len(st.sm.Smem); l++ {
			for w := 0; w < width; w++ {
				st.sm.Smem[st.idx+l] ^= 1 << ((st.bit + uint(w)) % 8)
			}
			st.sm.MarkSmem(st.idx + l)
		}
	default:
		for l := 0; l < lines && st.idx+l < st.cache.NumLines(); l++ {
			for w := 0; w < width; w++ {
				st.cache.FlipBit(st.idx+l, st.off, uint8(st.bit)+uint8(w))
			}
		}
	}
}

// force sets the site's single cell bit to v (idempotent).
func (st storageSite) force(v bool) {
	switch st.structure {
	case gpu.RF:
		mask := uint32(1) << (st.bit % 32)
		if v {
			st.sm.RF[st.idx] |= mask
		} else {
			st.sm.RF[st.idx] &^= mask
		}
		st.sm.MarkRF(st.idx)
	case gpu.SMEM:
		mask := byte(1) << (st.bit % 8)
		if v {
			st.sm.Smem[st.idx] |= mask
		} else {
			st.sm.Smem[st.idx] &^= mask
		}
		st.sm.MarkSmem(st.idx)
	default:
		st.cache.SetBit(st.idx, st.off, uint8(st.bit), v)
	}
}
