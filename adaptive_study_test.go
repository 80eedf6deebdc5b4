package gpurel

import (
	"math/rand"
	"testing"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
)

// bruteStudy is the oracle every default study is checked against: plain
// golden runs, no fork, no join, nothing pruned.
func bruteStudy(runs int, seed int64) *Study {
	s := NewStudy(runs, seed)
	s.Checkpoint = microfi.CheckpointSpec{}
	return s
}

// TestPrunedPointEquivalence is the end-to-end bit-exactness property on a
// real kernel: the default study's pruned campaign point classifies every
// run identically to the brute-force campaign over the same seeds, so the
// tallies match exactly — while actually skipping simulations (prune hits
// > 0).
func TestPrunedPointEquivalence(t *testing.T) {
	const runs = 60
	plain := bruteStudy(runs, 5)
	pruned := NewStudy(runs, 5)
	pruned.Counters = &adaptive.Counters{}

	for _, hardened := range []bool{false, true} {
		a, _, err := plain.MicroTally("VA", "K1", gpu.RF, hardened)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := pruned.MicroTally("VA", "K1", gpu.RF, hardened)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("hardened=%v: pruned tally %+v != brute-force tally %+v", hardened, b, a)
		}
	}
	if pruned.Counters.Pruned.Load() == 0 {
		t.Error("no injection was pruned — the liveness map did no work")
	}
	if pruned.Counters.Simulated.Load() == 0 {
		t.Error("no injection was simulated — suspicious for a live kernel")
	}
}

// TestPrunedSmemPoint: pruning covers shared memory too — the interval map
// holds its dead intervals as it holds the register file's — so a default
// SMEM point prunes runs and still tallies bit-identically to brute force.
func TestPrunedSmemPoint(t *testing.T) {
	spec := PointSpec{Layer: LayerMicro, App: "BackProp", Structure: gpu.SMEM}
	want, err := bruteStudy(40, 1).Tally(spec)
	if err != nil {
		t.Fatal(err)
	}
	pruned := NewStudy(40, 1)
	pruned.Counters = &adaptive.Counters{}
	got, err := pruned.Tally(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pruned tally %+v != brute-force tally %+v", got, want)
	}
	if pruned.Counters.Pruned.Load() == 0 {
		t.Error("no SMEM injection was pruned")
	}
}

// TestStratifiedPointEquivalence: every per-structure tally of a stratified
// kernel campaign is a bit-identical prefix of the corresponding plain
// fixed-n campaign, and the stop rule never fires before the margin target
// is met on the executed prefix.
func TestStratifiedPointEquivalence(t *testing.T) {
	const runs = 80
	s := NewStudy(runs, 9)
	s.Counters = &adaptive.Counters{}
	pol := adaptive.StratifiedPolicy{
		Policy: adaptive.Policy{Margin: 0.3, Batch: 20, MinRuns: 20},
		Pilot:  20,
		Budget: 3 * runs, // tighter than the 5·runs brute-force total
	}
	avf, structs, results, err := s.KernelAVFStratified("VA", "K1", false, pol)
	if err != nil {
		t.Fatal(err)
	}
	if avf.Total() < 0 || avf.Total() > 1 {
		t.Fatalf("stratified AVF out of range: %v", avf.Total())
	}
	if len(structs) != int(gpu.NumStructures) || len(results) != int(gpu.NumStructures) {
		t.Fatalf("expected %d strata, got %d/%d", gpu.NumStructures, len(structs), len(results))
	}

	ref := bruteStudy(runs, 9)
	total := 0
	for i, st := range gpu.Structures {
		got := results[i].Tally
		total += got.N
		if got.N == 0 {
			t.Fatalf("stratum %v ran nothing", st)
		}
		// Prefix identity against the brute-force experiment over the same
		// derived point seed.
		spec := PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: st}
		fn, err := ref.PointExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := campaign.Options{Runs: runs, Seed: PointSeed(ref.Seed, spec)}
		if want := campaign.RunRange(opts, 0, got.N, fn); want != got {
			t.Errorf("stratum %v: tally %+v != brute-force prefix %+v", st, got, want)
		}
		// A stratum that stopped short of its cap must have met the margin.
		if got.N < runs && got.Margin99() > pol.Margin && results[i].Allocated > 0 && !results[i].EarlyStopped {
			t.Errorf("stratum %v stopped at n=%d margin %.3f without meeting target %.3f",
				st, got.N, got.Margin99(), pol.Margin)
		}
	}
	if total > pol.Budget {
		t.Errorf("stratified campaign spent %d runs, budget %d", total, pol.Budget)
	}

	// The stratified tallies are cached: MicroTally must return them without
	// re-running (same tally, including the reduced N).
	for i, st := range gpu.Structures {
		tl, _, err := s.MicroTally("VA", "K1", st, false)
		if err != nil {
			t.Fatal(err)
		}
		if tl != results[i].Tally {
			t.Errorf("stratum %v not cached: %+v vs %+v", st, tl, results[i].Tally)
		}
	}
}

// TestAdaptivePointStopsHonestly: an adaptive (non-stratified) study point
// stops only at a batch boundary whose prefix meets the margin, and the
// resulting tally is a prefix of the fixed-n campaign.
func TestAdaptivePointStopsHonestly(t *testing.T) {
	const runs = 100
	s := NewStudy(runs, 3)
	s.Sampling = &SamplingPolicy{Margin: 0.25, Batch: 25}
	s.Counters = &adaptive.Counters{}
	tl, _, err := s.MicroTally("VA", "K1", gpu.L2, false)
	if err != nil {
		t.Fatal(err)
	}
	if tl.N%25 != 0 {
		t.Fatalf("stopped at n=%d, not a batch boundary", tl.N)
	}
	if tl.N < runs && tl.Margin99() > 0.25 {
		t.Fatalf("stopped early at margin %.3f > 0.25", tl.Margin99())
	}
	ref := NewStudy(runs, 3)
	want, _, err := ref.MicroTally("VA", "K1", gpu.L2, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.L2}
	fn, err := ref.PointExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	prefix := campaign.RunRange(campaign.Options{Runs: runs, Seed: PointSeed(ref.Seed, spec)}, 0, tl.N, fn)
	if prefix != tl {
		t.Fatalf("adaptive tally %+v is not a prefix of the fixed campaign (want %+v)", tl, prefix)
	}
	if tl.N < want.N && s.Counters.Saved.Load() == 0 {
		t.Error("early stop saved runs but Counters.Saved was not credited")
	}
}

// TestCachePruneEqualsBruteForce: the default study prunes cache flips that
// the golden run never reads before a store, a fill or the end of the job
// kills them, and every run — pruned or simulated — classifies as the
// brute-force study's run of the same seed does, result for result. K-Means
// is the one app that uses L1T, and it reads no texture line again in a
// cycle after its fill, so every L1T draw prunes; BFS has host steps that
// write (invalidating every cache) and host steps that do not; SRADv1 has
// six launches; VA is hardened, so its vote kernel's window counts too.
func TestCachePruneEqualsBruteForce(t *testing.T) {
	const runs = 40
	brute, def := bruteStudy(runs, 1), NewStudy(runs, 1)
	points := []struct {
		app      string
		hardened bool
	}{{"K-Means", false}, {"BFS", false}, {"SRADv1", false}, {"VA", true}}
	for _, st := range []gpu.Structure{gpu.L1D, gpu.L1T, gpu.L2} {
		def.Counters = &adaptive.Counters{}
		for _, p := range points {
			app, err := kernels.ByName(p.app)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range app.Kernels {
				spec := PointSpec{Layer: LayerMicro, App: p.app, Kernel: k, Structure: st, Hardened: p.hardened}
				want, got := results(t, brute, spec, runs), results(t, def, spec, runs)
				for run := range want {
					if got[run] != want[run] {
						t.Errorf("%s/%s/%v hardened=%v run %d: default study %+v, brute force %+v", p.app, k, st, p.hardened, run, got[run], want[run])
					}
				}
			}
		}
		if pruned, simulated := def.Counters.Pruned.Load(), def.Counters.Simulated.Load(); pruned == 0 || (simulated == 0) != (st == gpu.L1T) {
			t.Errorf("%v: %d runs pruned, %d simulated; want some of each, and no L1T run simulated", st, pruned, simulated)
		} else {
			t.Logf("%v: %d runs pruned, %d simulated", st, pruned, simulated)
		}
	}
}

// results runs the point's campaign on the study at the point's seed and
// returns what each run classified as.
func results(t *testing.T, s *Study, spec PointSpec, runs int) []faults.Result {
	t.Helper()
	fn, err := s.PointExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]faults.Result, runs)
	campaign.Run(campaign.Options{Runs: runs, Seed: PointSeed(1, spec)}, func(run int, rng *rand.Rand) faults.Result {
		out[run] = fn(run, rng)
		return out[run]
	})
	return out
}
