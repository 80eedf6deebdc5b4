package microfi

import (
	"math/rand"

	"gpurel/internal/ace"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// Pruned injection: the same experiment as Inject — bit-identically for any
// (seed, run) pair — with injections into provably dead sites classified as
// Masked without simulating them. The caller holds the evidence (the golden
// run's interval map); the injector replays its own site selection against
// that evidence's timeline.
//
// The equivalence argument: the faulty run is deterministic and identical to
// golden up to the injection cycle, so the allocated-block list the injector
// would enumerate at that cycle is exactly the timeline's reconstruction,
// and the RNG draws (cycle, entry, bit) replay in the same order with the
// same bounds. A flip confined to one entry whose stored value is never read
// again before overwrite/deallocation cannot change any future architectural
// event — output and cycle count match golden, which is precisely the
// Masked/not-control-affected classification the brute-force run would
// produce. That argument holds only for a one-shot fault confined to the
// drawn entry, so every model except faultmodel.Transient takes the exact
// unpruned Inject path with pruned=false. For the register file and shared
// memory it also needs the timeline's allocation kills to be sound — no CTA
// reads a register or shared-memory word before writing it — which the
// golden run's guard decides (sim.Result.FreeDead); a golden run without it
// prunes nothing there. Caches need no guard: the golden run's cache data
// record (mem.FrameLog) sees every read and kill of a cache word, including
// the fill that ends a flip into an invalid frame (see injectCache).

// InjectPruned is InjectStatic restricted to the register file: the same
// interval map, wrapped as ace.Liveness. The second return value reports
// whether the run was pruned (classified analytically). Structures other
// than RF, a nil map, non-transient models, and ECC-screened or
// empty-window runs fall through to the exact Inject behaviour with
// pruned=false.
func InjectPruned(job *device.Job, g *GoldenRun, lv *ace.Liveness, t Target, rng *rand.Rand) (faults.Result, bool) {
	if lv == nil || t.Structure != gpu.RF {
		return Inject(job, g, t, rng), false
	}
	return injectPruned(job, g, lv.Intervals, t, rng)
}

// InjectStatic is Inject with dead draws pruned against the golden run's
// interval map: register-file and shared-memory sites outside every live
// interval, and cache flips that no read meets before the byte is killed or
// the job ends. A nil map, control structures, non-transient models, and
// ECC-screened or empty-window runs fall through to the exact Inject
// behaviour with pruned=false.
func InjectStatic(job *device.Job, g *GoldenRun, si *StaticIntervals, t Target, rng *rand.Rand) (faults.Result, bool) {
	switch {
	case si == nil:
	case t.Structure == gpu.RF || t.Structure == gpu.SMEM:
		return injectPruned(job, g, si.IV, t, rng)
	case !t.Structure.IsControl():
		return injectCache(job, g, si.Frames, t, rng)
	}
	return Inject(job, g, t, rng), false
}

// Prunable reports whether InjectStatic can prune the target's draws: a
// transient fault in a storage array (register file, shared memory or a
// cache). Every other target simulates each run, so a front end need not
// trace an interval map for it (TraceStatic).
func (t Target) Prunable() bool {
	_, transient := t.model().(faultmodel.Transient)
	return transient && !t.Structure.IsControl()
}

// injectCache replays the transient model's cache draws — the SM (L1D and
// L1T only), then line, byte offset and bit: the faultmodel.pickStorageSite
// order — and simulates only when the golden run reads the drawn byte
// before a store, a fill or the end of the job kills it. Until that read
// the faulty run's cache events are golden's, so an unread flip leaves a
// run equal to golden in output and cycle count: Masked, as brute force
// classifies it. A flip into an invalid frame is one such flip, since only
// the fill that overwrites the line makes the frame readable again.
func injectCache(job *device.Job, g *GoldenRun, fr *sim.FrameRecord, t Target, rng *rand.Rand) (faults.Result, bool) {
	tr, ok := t.model().(faultmodel.Transient)
	if !ok {
		return Inject(job, g, t, rng), false
	}
	cycle, r, done := t.preflight(g, tr, rng)
	if done {
		return r, false
	}
	logs := fr.Logs(t.Structure)
	sm := 0
	if t.Structure != gpu.L2 {
		sm = rng.Intn(len(logs))
	}
	frames := logs[sm]
	line := rng.Intn(frames.NumFrames())
	off := uint32(rng.Intn(g.Cfg.LineSize))
	bit := uint(rng.Intn(8))
	if !frames.Live(line, off, cycle) {
		return faults.Result{Outcome: faults.Masked}, true
	}
	return injectRun(job, g, cycle, false, func(m *sim.Machine) (faultmodel.Applier, bool) {
		tr.FlipAt(m, t.Structure, sm, line, off, bit)
		return nil, true
	}), false
}

// injectPruned replays the transient model's register-file or shared-memory
// site selection from the interval map's allocation timeline — SMs in index
// order, blocks in CTA placement order, then the (entry, bit) draws: the
// faultmodel.pickAllocated enumeration — and simulates only when the drawn
// entry is live.
func injectPruned(job *device.Job, g *GoldenRun, iv *flow.Intervals, t Target, rng *rand.Rand) (faults.Result, bool) {
	// The timeline lets each allocation kill what the previous occupant
	// left behind, which holds only when the golden run proved free storage
	// dead (sim.Result.FreeDead); otherwise every run simulates.
	tr, ok := t.model().(faultmodel.Transient)
	if !ok || !g.Res.FreeDead {
		return Inject(job, g, t, rng), false
	}
	cycle, r, done := t.preflight(g, tr, rng)
	if done {
		return r, false
	}
	smem := t.Structure == gpu.SMEM
	var (
		blockScratch [8]flow.Blk
		smScratch    [8]int
		total        int
	)
	blocks, smOf := blockScratch[:0], smScratch[:0]
	for sm := 0; sm < iv.NumSMs(); sm++ {
		n := len(blocks)
		if smem {
			blocks = iv.SmemBlocksAt(sm, cycle, blocks)
		} else {
			blocks = iv.RFBlocksAt(sm, cycle, blocks)
		}
		for _, b := range blocks[n:] {
			smOf = append(smOf, sm)
			total += b.Size
		}
	}
	if total == 0 {
		// The brute-force run would simulate, find nothing allocated, and
		// classify the unperturbed (hence golden-identical) run as Masked.
		return faults.Result{Outcome: faults.Masked, Detail: "no allocated entry at injection cycle"}, true
	}
	// RF entries are 32-bit registers, SMEM entries are bytes.
	bits := 32
	if smem {
		bits = 8
	}
	k := rng.Intn(total)
	bit := uint(rng.Intn(bits))
	for i, b := range blocks {
		if k >= b.Size {
			k -= b.Size
			continue
		}
		sm, idx := smOf[i], b.Base+k
		if smem && !iv.LiveSmem(sm, idx, cycle) || !smem && !iv.LiveRF(sm, idx, cycle) {
			// Provably dead: the corrupted value is never consumed.
			return faults.Result{Outcome: faults.Masked}, true
		}
		return injectRun(job, g, cycle, false, func(m *sim.Machine) (faultmodel.Applier, bool) {
			tr.FlipAt(m, t.Structure, sm, idx, 0, bit)
			return nil, true
		}), false
	}
	// Unreachable: k < total = Σ sizes.
	panic("microfi: site selection overran the allocation timeline")
}
