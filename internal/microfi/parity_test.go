package microfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
)

// The hot-loop overhaul ships two complete execution cores: the pre-decoded
// µop interpreter with copy-on-write snapshots, and the reference
// decode-and-switch core (GoldenRun.Legacy / CheckpointSpec.Legacy). These
// tests pin the injection-layer property that makes the overhaul safe to
// ship: every injection path must tally bit-identically on both cores —
// faulty runs included, where the cores execute corrupted programs whose
// trajectories never appeared in any golden run.

// TestLegacyParityBruteForce: brute-force Inject campaigns across
// structures × fault models must tally identically on both cores. VA covers
// the storage arrays; LUD (real barriers and divergence) the control sites.
func TestLegacyParityBruteForce(t *testing.T) {
	cfg := gpu.Volta()
	cases := []struct {
		app        string
		structures []gpu.Structure
		models     map[string]faultmodel.Model
	}{
		{"VA", gpu.Structures[:], storageModels()},
		{"LUD", gpu.ControlStructures[:], controlModels()},
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.app, func(t *testing.T) {
			app, err := kernels.ByName(cs.app)
			if err != nil {
				t.Fatal(err)
			}
			job := app.Build()
			fast, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			slow.Legacy = true
			for name, mdl := range cs.models {
				for _, st := range cs.structures {
					tgt := Target{Structure: st, Model: mdl}
					for seed := int64(1); seed <= 2; seed++ {
						opts := campaign.Options{Runs: 2, Seed: seed}
						want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
							return Inject(job, slow, tgt, rng)
						})
						got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
							return Inject(job, fast, tgt, rng)
						})
						if got != want {
							t.Errorf("%s %s seed %d: µop tally %+v != reference %+v",
								name, st, seed, got, want)
						}
					}
				}
			}
		})
	}
}

// TestLegacyParityCheckpointed: the checkpointed fork-and-join path with the
// golden captured by each core — legacy capture exercises standalone
// snapshot save/restore, fast capture the COW pages — must tally
// identically across structures × fault models.
func TestLegacyParityCheckpointed(t *testing.T) {
	cfg := gpu.Volta()
	cases := []struct {
		app        string
		structures []gpu.Structure
		models     map[string]faultmodel.Model
	}{
		{"VA", gpu.Structures[:], storageModels()},
		{"LUD", gpu.ControlStructures[:], controlModels()},
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.app, func(t *testing.T) {
			app, err := kernels.ByName(cs.app)
			if err != nil {
				t.Fatal(err)
			}
			job := app.Build()
			probe, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := ckSpecFor(probe, true)
			fast, err := GoldenCheckpointed(job, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Legacy = true
			slow, err := GoldenCheckpointed(job, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			for name, mdl := range cs.models {
				for _, st := range cs.structures {
					tgt := Target{Structure: st, Model: mdl}
					opts := campaign.Options{Runs: 2, Seed: 3}
					want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						return Inject(job, slow, tgt, rng)
					})
					got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						return Inject(job, fast, tgt, rng)
					})
					if got != want {
						t.Errorf("%s %s: µop tally %+v != reference %+v", name, st, got, want)
					}
				}
			}
		})
	}
}

// TestLegacyParityStaticPrune: the static-interval pruning injectors must
// agree on both cores — same prune decisions (the intervals come from a
// schedule trace, identical by the sim-level parity) and same outcomes for
// the runs that do simulate.
func TestLegacyParityStaticPrune(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("PathFinder")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	static, err := TraceStatic(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.Legacy = true
	tgt := Target{Structure: gpu.RF}
	for seed := int64(0); seed < 25; seed++ {
		want, wantPruned := InjectStatic(job, slow, static, tgt, rand.New(rand.NewSource(seed)))
		got, gotPruned := InjectStatic(job, fast, static, tgt, rand.New(rand.NewSource(seed)))
		if got != want || gotPruned != wantPruned {
			t.Fatalf("seed %d: µop %+v/%v != reference %+v/%v", seed, got, gotPruned, want, wantPruned)
		}
	}
}

// TestLegacyParityAdaptive: the sequential early-stopping engine must make
// the same stop decisions and produce the same tally on both cores — batch
// tallies feed the Wilson-score margin, so a single diverging outcome would
// change where the campaign stops.
func TestLegacyParityAdaptive(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	fast, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.Legacy = true
	tgt := Target{Structure: gpu.RF}
	opts := campaign.Options{Runs: 120, Seed: 5}
	pol := adaptive.Policy{Margin: 0.25, Batch: 20}
	want := adaptive.Run(opts, pol, func(run int, rng *rand.Rand) faults.Result {
		return Inject(job, slow, tgt, rng)
	})
	got := adaptive.Run(opts, pol, func(run int, rng *rand.Rand) faults.Result {
		return Inject(job, fast, tgt, rng)
	})
	if got != want {
		t.Fatalf("adaptive result diverges:\nµop       %+v\nreference %+v", got, want)
	}
}
