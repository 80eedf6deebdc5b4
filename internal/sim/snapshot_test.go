package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/mem"
	"gpurel/internal/pages"
)

// resultsEqual compares everything a Result carries that injection
// classification can observe.
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) || got.TimedOut != want.TimedOut ||
		got.DUEFlag != want.DUEFlag {
		t.Fatalf("%s: flags diverge: got %+v, want %+v", label, got, want)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("%s: outputs differ", label)
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("%s: %d spans, want %d", label, len(got.Spans), len(want.Spans))
	}
	for i := range got.Spans {
		if got.Spans[i] != want.Spans[i] {
			t.Fatalf("%s: span %d: %+v, want %+v", label, i, got.Spans[i], want.Spans[i])
		}
	}
	if len(got.PerKernel) != len(want.PerKernel) {
		t.Fatalf("%s: %d kernels, want %d", label, len(got.PerKernel), len(want.PerKernel))
	}
	for name, ks := range got.PerKernel {
		ref := want.PerKernel[name]
		if ref == nil || *ks != *ref {
			t.Fatalf("%s: kernel %s stats diverge:\n%+v\n%+v", label, name, ks, ref)
		}
	}
}

// TestSnapshotRoundTrip: resuming the reference run from any checkpoint and
// letting it finish must reproduce the reference Result exactly — outputs,
// cycle count, spans, per-kernel stats.
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	for name, build := range map[string]struct {
		grid, block int
	}{"multiCTA": {4, 128}, "oversubscribed": {16, 128}} {
		t.Run(name, func(t *testing.T) {
			job, _, _ := buildJob(n, addOne(n), build.grid, build.block)
			golden := Run(job, cfg, Options{})
			if golden.Err != nil {
				t.Fatal(golden.Err)
			}
			snaps := NewSnapshotSet(golden.Cycles/8+1, 0)
			ref := Run(job, cfg, Options{Checkpoint: snaps})
			resultsEqual(t, "checkpointing run", ref, golden)
			if snaps.Len() == 0 {
				t.Fatal("no snapshots captured")
			}
			for i := 0; i < snaps.Len(); i++ {
				s := snaps.snaps[i]
				res := Run(job, cfg, Options{Resume: s})
				resultsEqual(t, "resumed run", res, golden)
			}
		})
	}
}

// TestResumeWithInjectionEquivalence: a faulty run resumed from a snapshot
// below its injection cycle must be bit-identical to the same faulty run
// simulated from cycle zero — the prefix it skips is fault-free and hence
// exactly what the snapshot captured.
func TestResumeWithInjectionEquivalence(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	job, _, _ := buildJob(n, addOne(n), 4, 128)
	golden := Run(job, cfg, Options{})
	snaps := NewSnapshotSet(golden.Cycles/10+1, 0)
	Run(job, cfg, Options{Checkpoint: snaps})

	flipAt := func(rng *rand.Rand) func(*Machine) {
		return func(m *Machine) {
			for _, sm := range m.SMs {
				blocks := sm.AllocatedRF()
				if len(blocks) == 0 {
					continue
				}
				blk := blocks[rng.Intn(len(blocks))]
				sm.RF[blk.Base+rng.Intn(blk.Size)] ^= 1 << uint(rng.Intn(32))
				return
			}
		}
	}
	resumed := 0
	for seed := int64(0); seed < 25; seed++ {
		cycle := 1 + rand.New(rand.NewSource(seed)).Int63n(golden.Cycles)
		base := Options{MaxCycles: golden.Cycles * 10, AtCycle: cycle}

		brute := base
		brute.OnCycle = flipAt(rand.New(rand.NewSource(1000 + seed)))
		want := Run(job, cfg, brute)

		fast := base
		fast.OnCycle = flipAt(rand.New(rand.NewSource(1000 + seed)))
		if s := snaps.Before(cycle); s != nil {
			fast.Resume = s
			resumed++
		}
		got := Run(job, cfg, fast)
		resultsEqual(t, "forked faulty run", got, want)
	}
	if resumed == 0 {
		t.Error("no run resumed from a checkpoint — Before never matched")
	}
}

// TestConvergeDetection: a run whose hook fires but perturbs nothing is in
// golden state at the next checkpoint; convergence must detect that, skip
// the suffix, and still carry golden-identical progress up to the join.
func TestConvergeDetection(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	job, _, _ := buildJob(n, addOne(n), 4, 128)
	golden := Run(job, cfg, Options{})
	snaps := NewSnapshotSet(golden.Cycles/10+1, 0)
	Run(job, cfg, Options{Checkpoint: snaps})

	cycle := golden.Cycles / 3
	res := Run(job, cfg, Options{
		MaxCycles: golden.Cycles * 10,
		AtCycle:   cycle,
		OnCycle:   func(m *Machine) {},
		Converge:  snaps,
	})
	if !res.Converged {
		t.Fatal("no-op injection did not converge back to golden")
	}
	if res.ConvergedAt <= cycle || res.ConvergedAt > golden.Cycles {
		t.Fatalf("converged at cycle %d, outside (%d, %d]", res.ConvergedAt, cycle, golden.Cycles)
	}
	// A genuinely corrupting flip must NOT converge into a masked-looking
	// state before its damage is visible: converge compares complete state,
	// so any RF difference blocks the join.
	perturbed := Run(job, cfg, Options{
		MaxCycles: golden.Cycles * 10,
		AtCycle:   cycle,
		OnCycle: func(m *Machine) {
			for _, sm := range m.SMs {
				if blocks := sm.AllocatedRF(); len(blocks) > 0 {
					sm.RF[blocks[0].Base] ^= 1 << 31
					return
				}
			}
		},
		Converge: snaps,
	})
	if perturbed.Converged && perturbed.ConvergedAt == snaps.Before(cycle+1).Cycle() {
		t.Error("corrupted state converged at a pre-injection checkpoint")
	}
}

// TestRunPoolDeterminism: recycling machine state through a RunPool must not
// leak residue between runs — pooled and fresh runs agree bit for bit.
func TestRunPoolDeterminism(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	job, _, _ := buildJob(n, addOne(n), 4, 128)
	golden := Run(job, cfg, Options{})
	pool := NewRunPool()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6; i++ {
		// Alternate corrupting and clean runs so a stale-state leak from the
		// corrupted machine would show up in the next clean run.
		res := Run(job, cfg, Options{
			MaxCycles: golden.Cycles * 10,
			AtCycle:   1 + rng.Int63n(golden.Cycles),
			OnCycle: func(m *Machine) {
				for _, sm := range m.SMs {
					if blocks := sm.AllocatedRF(); len(blocks) > 0 {
						sm.RF[blocks[0].Base+rng.Intn(blocks[0].Size)] ^= 1 << uint(rng.Intn(32))
						return
					}
				}
			},
			Pool: pool,
		})
		_ = res
		clean := Run(job, cfg, Options{Pool: pool})
		resultsEqual(t, "pooled clean run", clean, golden)
	}
}

// synthSet builds a SnapshotSet with fabricated snapshots for unit-testing
// the stride/budget mechanics without running the simulator.
func synthSet(stride, budget int64, cycles []int64, each int64) *SnapshotSet {
	s := NewSnapshotSet(stride, budget)
	for _, c := range cycles {
		s.snaps = append(s.snaps, &Snapshot{runScalars: runScalars{cycle: c}, fixed: each, bytes: each})
		s.bytes += each
	}
	return s
}

func TestSnapshotSetBeforeAndAt(t *testing.T) {
	s := synthSet(10, 0, []int64{10, 20, 30, 40}, 1)
	cases := []struct {
		c    int64
		want int64 // expected Before cycle, 0 = nil
	}{{5, 0}, {10, 0}, {11, 10}, {20, 10}, {35, 30}, {40, 30}, {41, 40}, {1000, 40}}
	for _, c := range cases {
		got := s.Before(c.c)
		switch {
		case c.want == 0 && got != nil:
			t.Errorf("Before(%d) = cycle %d, want nil", c.c, got.cycle)
		case c.want != 0 && (got == nil || got.cycle != c.want):
			t.Errorf("Before(%d) = %v, want cycle %d", c.c, got, c.want)
		}
	}
	if s.at(20) == nil || s.at(20).cycle != 20 {
		t.Error("at(20) must find the exact snapshot")
	}
	if s.at(25) != nil || s.at(50) != nil {
		t.Error("at must return nil off the grid / past the end")
	}
}

func TestSnapshotSetWiden(t *testing.T) {
	// 8 snapshots of 100 bytes at stride 10; a 350-byte budget forces two
	// doublings: stride 40 keeps cycles 40 and 80 (2×100 ≤ 350).
	s := synthSet(10, 350, []int64{10, 20, 30, 40, 50, 60, 70, 80}, 100)
	for s.budget > 0 && s.bytes > s.budget {
		if !s.widen() {
			break
		}
	}
	if s.Stride() != 40 {
		t.Errorf("stride = %d, want 40", s.Stride())
	}
	if s.Len() != 2 || s.snaps[0].cycle != 40 || s.snaps[1].cycle != 80 {
		t.Errorf("kept %d snaps: %+v", s.Len(), s.snaps)
	}
	if s.Evicted() != 6 || s.Bytes() != 200 {
		t.Errorf("evicted=%d bytes=%d, want 6/200", s.Evicted(), s.Bytes())
	}

	// A single over-budget snapshot disables capture entirely.
	s = synthSet(10, 50, []int64{10}, 100)
	if s.widen() {
		t.Error("widen with one snapshot must give up")
	}
	if s.Len() != 0 || s.Stride() != 0 || s.Bytes() != 0 || s.Evicted() != 1 {
		t.Errorf("disable left state: len=%d stride=%d bytes=%d evicted=%d",
			s.Len(), s.Stride(), s.Bytes(), s.Evicted())
	}
}

// TestSnapshotBudgetWidensLive: an end-to-end run under a tight budget must
// keep retained bytes within it (or disable capture), never exceed it.
func TestSnapshotBudgetWidensLive(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	job, _, _ := buildJob(n, addOne(n), 4, 128)
	golden := Run(job, cfg, Options{})

	probe := NewSnapshotSet(golden.Cycles/16+1, 0)
	Run(job, cfg, Options{Checkpoint: probe})
	if probe.Len() < 4 {
		t.Skipf("run too short for budget pressure: %d snaps", probe.Len())
	}
	// Derive pressure from the probe's shared-aware retained total: one byte
	// below it, so the identical replay must widen at least once. (Snapshot
	// standalone sizes overstate the marginal cost under copy-on-write
	// sharing, so the budget has to come from set-level accounting.)
	budget := probe.Bytes() - 1
	tight := NewSnapshotSet(golden.Cycles/16+1, budget)
	res := Run(job, cfg, Options{Checkpoint: tight})
	resultsEqual(t, "budgeted checkpointing run", res, golden)
	if tight.Bytes() > budget {
		t.Errorf("retained %d bytes over the %d budget", tight.Bytes(), budget)
	}
	if tight.Evicted() == 0 {
		t.Error("tight budget evicted nothing")
	}
	if tight.Stride() != 0 && tight.Stride() <= probe.stride {
		t.Errorf("stride did not widen: %d <= %d", tight.Stride(), probe.stride)
	}
}

// distinctBytes is the set's retained size counted the direct way: every
// snapshot's fixed state plus each distinct storage page once, identified
// by its backing array, and each distinct cache set page once, identified
// by its pointer.
func distinctBytes(s *SnapshotSet) int64 {
	var n int64
	seenB := map[*byte]bool{}
	seenS := map[*mem.SetPage]bool{}
	blocks := func(t pages.Table[pages.Block]) {
		for _, pg := range t {
			if b := pg.Bytes(); !seenB[&b[0]] {
				seenB[&b[0]] = true
				n += int64(len(b))
			}
		}
	}
	for _, snap := range s.snaps {
		n += snap.fixed
		blocks(snap.dmem.Pages())
		for _, t := range snap.arrays {
			blocks(t)
		}
		for i := range snap.caches {
			for _, pg := range snap.caches[i].Pages() {
				if !seenS[pg] {
					seenS[pg] = true
					n += pg.Size()
				}
			}
		}
	}
	return n
}

// TestChainCountMatchesDistinct: the set's chain-counted Bytes equals the
// direct distinct-page count after every add and every widen, on a dense
// grid under a budget that widens it at least twice, for three apps. The
// snapshots of an unbudgeted run are fed to a budgeted set on the same
// grid the run loop would offer them on, so each one's provenance base is
// often a snapshot the set has already evicted; a live budgeted run must
// end on the same count too.
func TestChainCountMatchesDistinct(t *testing.T) {
	cfg := gpu.Volta()
	for _, name := range []string{"PathFinder", "HotSpot", "LUD"} {
		app, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		job := app.Build()
		golden := Run(job, cfg, Options{})
		stride := golden.Cycles/128 + 1
		ref := NewSnapshotSet(stride, 0)
		Run(job, cfg, Options{Checkpoint: ref})
		if got, want := ref.Bytes(), distinctBytes(ref); got != want {
			t.Fatalf("%s: unbudgeted set counts %d bytes, distinct pages give %d", name, got, want)
		}
		budget := ref.Bytes() / 5

		s := NewSnapshotSet(stride, budget)
		for _, snap := range ref.snaps {
			if s.stride == 0 {
				break
			}
			if snap.cycle%s.stride != 0 {
				continue
			}
			s.add(snap)
			if got, want := s.Bytes(), distinctBytes(s); got != want {
				t.Fatalf("%s: after adding cycle %d: %d bytes, distinct pages give %d", name, snap.cycle, got, want)
			}
			for s.bytes > s.budget && s.widen() {
				if got, want := s.Bytes(), distinctBytes(s); got != want {
					t.Fatalf("%s: after widening to %d: %d bytes, distinct pages give %d", name, s.stride, got, want)
				}
			}
		}
		if s.Stride() < 4*stride {
			t.Errorf("%s: stride widened from %d to %d, want at least two doublings", name, stride, s.Stride())
		}

		live := NewSnapshotSet(stride, budget)
		Run(job, cfg, Options{Checkpoint: live})
		if got, want := live.Bytes(), distinctBytes(live); got != want || got > budget {
			t.Errorf("%s: live budgeted set counts %d bytes, distinct pages give %d, budget %d", name, got, want, budget)
		}
		if live.Stride() < 4*stride {
			t.Errorf("%s: live stride widened from %d to %d, want at least two doublings", name, stride, live.Stride())
		}
		t.Logf("%s: %d of %d snapshots in %.1f of %.1f MB at stride %d (from %d)", name,
			live.Len(), ref.Len(), float64(live.Bytes())/(1<<20), float64(ref.Bytes())/(1<<20), live.Stride(), stride)
	}
}
