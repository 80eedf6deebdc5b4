// Fault-model tests: every model family must run end-to-end, checkpointed
// fork-and-join must stay bit-identical to brute force under every model,
// the converge guard for persistent models must be provably load-bearing
// (a deliberately unguarded injector mis-classifies runs), and the campaign
// algebra above the injector — adaptive stopping, stratified allocation,
// liveness/static pruning — must be model-agnostic.
package microfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// storageModels are the model instances compared on storage arrays;
// controlModels the ones for SCHED/STACK/BARRIER sites.
func storageModels() map[string]faultmodel.Model {
	return map[string]faultmodel.Model{
		"transient":    faultmodel.Transient{Width: 1},
		"transient:w2": faultmodel.Transient{Width: 2},
		"stuck0":       faultmodel.StuckAt{V: 0},
		"stuck1":       faultmodel.StuckAt{V: 1},
		"mbu:w2:l2":    faultmodel.SpatialMBU{Width: 2, Lines: 2},
	}
}

func controlModels() map[string]faultmodel.Model {
	return map[string]faultmodel.Model{
		"control":        faultmodel.ControlFault{},
		"control:stuck0": faultmodel.ControlFault{Stuck: faultmodel.Ptr(0)},
		"control:stuck1": faultmodel.ControlFault{Stuck: faultmodel.Ptr(1)},
	}
}

// TestModelCheckpointEquivalence is the per-model acceptance property: for
// every fault model, a campaign against a checkpointed golden run (fork
// resumes, convergence joins where sound, machine pooling) must tally
// bit-identically to the same campaign against a brute-force golden. VA
// covers the storage arrays; LUD — which has real barriers and divergence —
// covers the control-state sites.
func TestModelCheckpointEquivalence(t *testing.T) {
	cfg := gpu.Volta()
	type caseSet struct {
		app        string
		structures []gpu.Structure
		models     map[string]faultmodel.Model
	}
	cases := []caseSet{
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
			brute, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := GoldenCheckpointed(job, cfg, ckSpecFor(brute, true))
			if err != nil {
				t.Fatal(err)
			}
			for name, mdl := range cs.models {
				before := ck.CheckpointCounts()
				for _, st := range cs.structures {
					tgt := Target{Structure: st, Model: mdl}
					for seed := int64(1); seed <= 3; seed++ {
						opts := campaign.Options{Runs: 2, Seed: seed}
						want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
							return Inject(job, brute, tgt, rng)
						})
						got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
							return Inject(job, ck, tgt, rng)
						})
						if got != want {
							t.Errorf("%s %s seed %d: checkpointed tally %+v != brute-force %+v",
								name, st, seed, got, want)
						}
					}
				}
				delta := ck.CheckpointCounts()
				delta.ForkResumes -= before.ForkResumes
				delta.ConvergeHits -= before.ConvergeHits
				delta.ConvergeDisabled -= before.ConvergeDisabled
				if mdl.Persistent() {
					if delta.ConvergeHits != 0 {
						t.Errorf("%s: persistent model recorded %d converge joins", name, delta.ConvergeHits)
					}
					if delta.ConvergeDisabled == 0 {
						t.Errorf("%s: persistent model never tripped the converge guard", name)
					}
				} else if delta.ConvergeDisabled != 0 {
					t.Errorf("%s: one-shot model tripped the converge guard %d times", name, delta.ConvergeDisabled)
				}
			}
		})
	}
}

// misjoinInject is Inject with the converge guard deliberately
// removed: it arms convergence probing even for persistent models — the
// exact bug the guard exists to prevent. Kept test-only as the oracle that
// proves the guard is load-bearing.
func misjoinInject(job *device.Job, g *GoldenRun, tgt Target, rng *rand.Rand) (faults.Result, bool) {
	mdl := tgt.model()
	cycle, r, done := tgt.preflight(g, mdl, rng)
	if done {
		return r, false
	}
	hit := false
	var applier faultmodel.Applier
	opts := sim.Options{
		MaxCycles: g.Res.Cycles * int64(g.Cfg.TimeoutFactor),
		AtCycle:   cycle,
		OnCycle: func(m *sim.Machine) {
			applier, hit = mdl.Arm(m, tgt.Structure, rng)
		},
		EachCycle: func(m *sim.Machine) {
			if applier != nil {
				applier(m)
			}
		},
	}
	if s := g.Snaps.Before(cycle); s != nil {
		opts.Resume = s
	}
	opts.Converge = g.Snaps // the bug: joins against fault-free state while armed
	opts.Pool = g.pool
	res := sim.Run(job, g.Cfg, opts)
	if res.Converged {
		return Classify(g, g.Res, hit), true
	}
	return Classify(g, res, hit), false
}

// TestConvergeGuardCatchesMisjoins is the regression test for the guard:
// with a permanent stuck-at fault, an unguarded injector joins back to
// golden whenever the forced bit happens to match fault-free state at a
// checkpoint — and for at least one seed that join silently flips the
// classification. The guarded path must stay bit-identical to brute force
// on those same seeds. If the guard were removed, the equivalence
// assertions here (and TestModelCheckpointEquivalence) would fail exactly
// the way the oracle demonstrates.
func TestConvergeGuardCatchesMisjoins(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := GoldenCheckpointed(job, cfg, ckSpecFor(brute, true))
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Structure: gpu.RF, Model: faultmodel.StuckAt{V: 0}}

	misjoined, diverged := 0, 0
	const seeds = 400
	for seed := int64(0); seed < seeds; seed++ {
		want := Inject(job, brute, tgt, rand.New(rand.NewSource(seed)))
		got := Inject(job, ck, tgt, rand.New(rand.NewSource(seed)))
		if got != want {
			t.Fatalf("seed %d: guarded checkpointed result %+v != brute-force %+v", seed, got, want)
		}
		buggy, joined := misjoinInject(job, ck, tgt, rand.New(rand.NewSource(seed)))
		if joined {
			misjoined++
			if buggy.Outcome != want.Outcome {
				diverged++
			}
		}
		if diverged > 0 && seed >= 50 {
			break // the oracle has made its point; keep the test fast
		}
	}
	if misjoined == 0 {
		t.Fatal("oracle never joined: the mis-join scenario the guard defends against did not occur")
	}
	if diverged == 0 {
		t.Errorf("unguarded joins never changed a classification in %d seeds; the guard test lost its teeth", seeds)
	}
	t.Logf("unguarded injector: %d silent joins, %d misclassifications", misjoined, diverged)
}

// TestModelAgnosticCampaignAlgebra: the acceleration layers above the
// injector must not care which model runs underneath. For each model:
// adaptive early-stopping tallies a bit-identical prefix of brute force,
// stratified allocation keeps every stratum a prefix of its own run space,
// and — the one property every entry point shares — each pruner on each
// golden (brute-force or checkpointed with converge joins) classifies every
// seed exactly as brute-force Inject does. Pruning is only sound for
// one-shot single-entry faults, so non-transient families must come back
// with pruned=false.
func TestModelAgnosticCampaignAlgebra(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	g, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for name, mdl := range storageModels() {
		tgt := Target{Structure: gpu.RF, Model: mdl}
		exp := func(run int, rng *rand.Rand) faults.Result {
			return Inject(job, g, tgt, rng)
		}

		// Adaptive early stopping = a batch-boundary prefix of brute force.
		opts := campaign.Options{Runs: 40, Seed: 11}
		res := adaptive.Run(opts, adaptive.Policy{Margin: 0.45, Batch: 10}, exp)
		if res.Tally.N >= opts.Runs && res.Saved > 0 {
			t.Errorf("%s: inconsistent adaptive result %+v", name, res)
		}
		if want := campaign.RunRange(opts, 0, res.Tally.N, exp); res.Tally != want {
			t.Errorf("%s: adaptive tally %+v != brute-force prefix %+v", name, res.Tally, want)
		}

		// Stratified allocation: each stratum stays a prefix of its own
		// deterministic run space.
		strata := []adaptive.Stratum{}
		for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
			stTgt := Target{Structure: st, Model: mdl}
			strata = append(strata, adaptive.Stratum{
				Name:   st.String(),
				Weight: float64(cfg.StructBits(st)),
				Opts:   campaign.Options{Runs: 20, Seed: 7},
				Fn: func(run int, rng *rand.Rand) faults.Result {
					return Inject(job, g, stTgt, rng)
				},
			})
		}
		for i, sr := range adaptive.Stratified(strata, adaptive.StratifiedPolicy{
			Policy: adaptive.Policy{Margin: 0.4, Batch: 5}, Pilot: 5, Budget: 30,
		}) {
			if want := campaign.RunRange(strata[i].Opts, 0, sr.Tally.N, strata[i].Fn); sr.Tally != want {
				t.Errorf("%s stratum %s: tally %+v != prefix %+v", name, sr.Name, sr.Tally, want)
			}
		}
	}

	// pruner × model × checkpoint ≡ brute-force Inject, per seed. VA has no
	// shared memory; LUD and PathFinder give the SMEM legs real sites, and
	// LUD's barriers and divergence give the control leg real latches.
	models := []struct {
		name       string
		mdl        faultmodel.Model
		structures []gpu.Structure
	}{
		{"transient", nil, []gpu.Structure{gpu.RF, gpu.SMEM}},
		{"transient:w3", faultmodel.Transient{Width: 3}, []gpu.Structure{gpu.RF, gpu.SMEM}},
		{"stuck0", faultmodel.StuckAt{V: 0}, []gpu.Structure{gpu.RF, gpu.SMEM}},
		{"mbu:w2:l2", faultmodel.SpatialMBU{Width: 2, Lines: 2}, []gpu.Structure{gpu.RF, gpu.SMEM}},
		{"control", faultmodel.ControlFault{}, []gpu.Structure{gpu.Stack}},
	}
	for _, appName := range []string{"VA", "LUD", "PathFinder"} {
		t.Run(appName, func(t *testing.T) {
			app, err := kernels.ByName(appName)
			if err != nil {
				t.Fatal(err)
			}
			job := app.Build()
			brute, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: AutoStride, Converge: true})
			if err != nil {
				t.Fatal(err)
			}
			lv, err := ace.TraceRF(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			static, err := TraceStatic(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pruners := []struct {
				name   string
				covers func(gpu.Structure) bool
				inject func(*GoldenRun, Target, *rand.Rand) (faults.Result, bool)
			}{
				{"none", func(gpu.Structure) bool { return false },
					func(g *GoldenRun, tgt Target, rng *rand.Rand) (faults.Result, bool) {
						return Inject(job, g, tgt, rng), false
					}},
				{"liveness", func(st gpu.Structure) bool { return st == gpu.RF },
					func(g *GoldenRun, tgt Target, rng *rand.Rand) (faults.Result, bool) {
						return InjectPruned(job, g, lv, tgt, rng)
					}},
				{"intervals", func(st gpu.Structure) bool { return st == gpu.RF || st == gpu.SMEM },
					func(g *GoldenRun, tgt Target, rng *rand.Rand) (faults.Result, bool) {
						return InjectStatic(job, g, static, tgt, rng)
					}},
			}
			prunedBy := map[string]int{}
			for _, m := range models {
				_, prunable := Target{Model: m.mdl}.model().(faultmodel.Transient)
				for _, st := range m.structures {
					tgt := Target{Structure: st, Model: m.mdl}
					for seed := int64(0); seed < 8; seed++ {
						want := Inject(job, brute, tgt, rand.New(rand.NewSource(seed)))
						for _, pr := range pruners {
							for gi, g := range []*GoldenRun{brute, ck} {
								got, pruned := pr.inject(g, tgt, rand.New(rand.NewSource(seed)))
								if got != want {
									t.Fatalf("%s %s %s checkpointed=%v seed %d: %+v (pruned=%v) != brute-force %+v",
										m.name, st, pr.name, gi == 1, seed, got, pruned, want)
								}
								if pruned && !(prunable && pr.covers(st)) {
									t.Fatalf("%s %s %s seed %d: pruned a run the pruner has no evidence for",
										m.name, st, pr.name, seed)
								}
								if pruned {
									prunedBy[pr.name]++
								}
							}
						}
					}
				}
			}
			// Every axis must have been exercised: both pruners pruned, the
			// persistent leg tripped the converge guard, one-shot legs joined.
			if prunedBy["liveness"] == 0 || prunedBy["intervals"] == 0 {
				t.Errorf("pruner axis not exercised: %v", prunedBy)
			}
			if c := ck.CheckpointCounts(); c.ConvergeDisabled == 0 || c.ConvergeHits == 0 {
				t.Errorf("checkpoint axis not exercised: %+v", c)
			}
		})
	}
}

// TestControlFaultsEndToEnd: every control-state site on every app yields a
// classifiable outcome and a deterministic campaign — same seed, same tally.
func TestControlFaultsEndToEnd(t *testing.T) {
	cfg := gpu.Volta()
	for _, appName := range []string{"VA", "LUD"} {
		app, err := kernels.ByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		job := app.Build()
		g, err := Golden(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, mdl := range controlModels() {
			for _, st := range gpu.ControlStructures {
				tgt := Target{Structure: st, Model: mdl}
				opts := campaign.Options{Runs: 6, Seed: 5}
				run := func() campaign.Tally {
					return campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						return Inject(job, g, tgt, rng)
					})
				}
				a, b := run(), run()
				if a != b {
					t.Errorf("%s %s %s: campaign not deterministic: %+v != %+v", appName, name, st, a, b)
				}
				if a.N != opts.Runs {
					t.Errorf("%s %s %s: tally n=%d, want %d", appName, name, st, a.N, opts.Runs)
				}
			}
		}
	}
}

// TestOneRowMBUIsTheBurst: SpatialMBU{Width: w, Lines: 1} classifies every
// run exactly like Transient{Width: w} on the register file, shared memory
// and the L1D, which is what lets faultmodel.Spec.Build return the burst for
// a one-row MBU.
func TestOneRowMBUIsTheBurst(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("LUD")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	g, err := GoldenCheckpointed(job, cfg, DefaultCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D} {
		for _, w := range []int{1, 2, 3} {
			burst := Target{Structure: st, Model: faultmodel.Transient{Width: w}}
			mbu := Target{Structure: st, Model: faultmodel.SpatialMBU{Width: w, Lines: 1}}
			for run := int64(0); run < 40; run++ {
				want := Inject(job, g, burst, rand.New(rand.NewSource(run)))
				if got := Inject(job, g, mbu, rand.New(rand.NewSource(run))); got != want {
					t.Fatalf("%s width %d run %d: one-row MBU %+v, burst %+v", st, w, run, got, want)
				}
				if want.Outcome != faults.Masked {
					failed++
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("every run was Masked: the comparison exercises nothing")
	}
}
