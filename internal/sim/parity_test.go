package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
)

// Reference parity: the µop core (cycleSM → uop.(*Program).Issue → the
// handler tables) against the reference core of reference_test.go. These
// tests live here, not next to the injectors they drive, because the
// reference core exists only in this package's test binary: an external test
// that imports microfi is linked against the test-augmented sim, so
// sim.OnReference switches the core underneath microfi.Inject and
// adaptive.Run too.

// sameResult fails the test unless two runs agree in full: status, cycle
// count, output bytes, launch spans and per-kernel statistics.
func sameResult(t *testing.T, aName string, a *sim.Result, bName string, b *sim.Result) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if errText(a.Err) != errText(b.Err) || a.TimedOut != b.TimedOut || a.DUEFlag != b.DUEFlag {
		t.Fatalf("status diverges: %s err=%v timeout=%v due=%v, %s err=%v timeout=%v due=%v",
			aName, a.Err, a.TimedOut, a.DUEFlag, bName, b.Err, b.TimedOut, b.DUEFlag)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles: %s %d, %s %d", aName, a.Cycles, bName, b.Cycles)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Error("outputs differ")
	}
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("spans: %s %d, %s %d", aName, len(a.Spans), bName, len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Errorf("span %d: %s %+v, %s %+v", i, aName, a.Spans[i], bName, b.Spans[i])
		}
	}
	if len(a.PerKernel) != len(b.PerKernel) {
		t.Fatalf("kernel stats: %s %d, %s %d", aName, len(a.PerKernel), bName, len(b.PerKernel))
	}
	for name, ks := range a.PerKernel {
		ref := b.PerKernel[name]
		if ref == nil || *ks != *ref {
			t.Errorf("kernel %s stats diverge:\n%s %+v\n%s %+v", name, aName, ks, bName, ref)
		}
	}
}

// parityJob is one workload both cores must agree on.
type parityJob struct {
	name  string
	build func() *device.Job
}

// parityJobs returns every shipped application plain and under harden.TMR
// (vote kernels, replica launches, the DUEFlag read-out), plus one
// harden.Selective proper subset (hardened and plain kernels in one job).
func parityJobs(t *testing.T) []parityJob {
	var jobs []parityJob
	for _, app := range kernels.All() {
		jobs = append(jobs,
			parityJob{app.Name, app.Build},
			parityJob{app.Name + "-TMR", func() *device.Job { return harden.TMR(app.Build()) }})
	}
	app, err := kernels.ByName("SRADv1")
	if err != nil {
		t.Fatal(err)
	}
	set := harden.NewSet(app.Kernels[0], app.Kernels[2])
	if probe := app.Build(); set.Covers(probe) || set.Empty() {
		t.Fatalf("selective set %s is not a proper subset of %v", set.Canonical(), app.Kernels)
	}
	return append(jobs, parityJob{app.Name + "-Selective", func() *device.Job { return harden.Selective(app.Build(), set) }})
}

// TestReferenceParityAllApps is the core bit-identity property: on every
// parity job the µop core and the reference core produce the same Result in
// full. Every downstream equivalence (checkpoint forks, convergence joins,
// campaign tallies) leans on it.
func TestReferenceParityAllApps(t *testing.T) {
	cfg := gpu.Volta()
	for _, pj := range parityJobs(t) {
		t.Run(pj.name, func(t *testing.T) {
			fast := sim.Run(pj.build(), cfg, sim.Options{})
			var slow *sim.Result
			before := sim.ReferenceCycles()
			sim.OnReference(func() { slow = sim.Run(pj.build(), cfg, sim.Options{}) })
			if sim.ReferenceCycles() == before {
				t.Fatal("the reference run did not execute on the reference core")
			}
			if fast.Err != nil || fast.TimedOut {
				t.Fatalf("µop run failed: %v timeout=%v", fast.Err, fast.TimedOut)
			}
			sameResult(t, "µop", fast, "reference", slow)
		})
	}
}

// TestSteppedCounts pins which loop iterations each core executes. Under the
// reference core no SM ever publishes a wake-up time, so runLaunch steps every
// simulated cycle of every parity job: it stays the cycle-by-cycle oracle.
// The µop core jumps over the cycles in which nothing can be placed, fired or
// issued: on each shipped application it steps fewer cycles than it
// simulates, and over all eleven at most 30 % of them (18.6 % when this was
// written). A forked run counts from its snapshot's cycle.
func TestSteppedCounts(t *testing.T) {
	cfg := gpu.Volta()
	for _, pj := range parityJobs(t) {
		var slow *sim.Result
		sim.OnReference(func() { slow = sim.Run(pj.build(), cfg, sim.Options{}) })
		if slow.Stepped != slow.Cycles {
			t.Errorf("%s: the reference core stepped %d of %d cycles", pj.name, slow.Stepped, slow.Cycles)
		}
	}
	var stepped, cycles int64
	for _, app := range kernels.All() {
		res := sim.Run(app.Build(), cfg, sim.Options{})
		if res.Stepped <= 0 || res.Stepped >= res.Cycles {
			t.Errorf("%s: the µop core stepped %d of %d cycles", app.Name, res.Stepped, res.Cycles)
		}
		t.Logf("%-10s stepped %6d of %6d cycles (%4.1f %%)", app.Name, res.Stepped, res.Cycles, 100*float64(res.Stepped)/float64(res.Cycles))
		stepped += res.Stepped
		cycles += res.Cycles
	}
	if stepped*10 > cycles*3 {
		t.Errorf("the µop core stepped %d of %d golden cycles: more than 30 %%", stepped, cycles)
	}

	job := buildApp(t, "LUD")
	fastSet, slowSet := onBothCores(func() *sim.SnapshotSet {
		set := sim.NewSnapshotSet(50000, 0)
		sim.Run(job, cfg, sim.Options{Checkpoint: set})
		return set
	})
	fork := slowSet.Snap(1)
	var slow *sim.Result
	sim.OnReference(func() { slow = sim.Run(job, cfg, sim.Options{Resume: fork}) })
	fast := sim.Run(job, cfg, sim.Options{Resume: fastSet.Snap(1)})
	sameResult(t, "µop fork", fast, "reference fork", slow)
	if want := slow.Cycles - fork.Cycle(); slow.Stepped != want {
		t.Errorf("a reference run forked at cycle %d of %d stepped %d cycles, want %d", fork.Cycle(), slow.Cycles, slow.Stepped, want)
	}
	if fast.Stepped <= 0 || fast.Stepped >= slow.Stepped {
		t.Errorf("forked at cycle %d: the µop core stepped %d cycles, the reference core %d", fork.Cycle(), fast.Stepped, slow.Stepped)
	}
}

// TestOneCoreOutsideTests pins where the reference core can run: only inside
// sim.OnReference. A plain run — traced or not, direct or through microfi —
// never touches it, so the µop core is what feeds the schedule trace; inside
// OnReference a golden run built by microfi does execute on it, which is
// what lets the campaign tests below reach it across the package boundary.
func TestOneCoreOutsideTests(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	before := sim.ReferenceCycles()
	sim.Run(job, cfg, sim.Options{})
	sim.Run(job, cfg, sim.Options{SchedTrace: flow.NewRecorder()})
	if _, err := microfi.Golden(job, cfg); err != nil {
		t.Fatal(err)
	}
	if n := sim.ReferenceCycles() - before; n != 0 {
		t.Fatalf("%d reference-core cycles outside OnReference", n)
	}
	sim.OnReference(func() { _, err = microfi.Golden(job, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if sim.ReferenceCycles() == before {
		t.Fatal("OnReference did not reach a run started by microfi")
	}
}

// TestOutOfISAOpcode: isa.Program.Validate rejects opcodes the ISA does not
// define, so only a hand-built program can carry one. Both cores fault with
// the same error when — and only when — a lane executes it; with every lane
// guarded off (predicates start false) it is skipped and the run completes.
func TestOutOfISAOpcode(t *testing.T) {
	cfg := gpu.Volta()
	for _, c := range []struct {
		name    string
		guard   isa.Pred
		wantErr string
	}{
		{"executed", isa.PT, "unimplemented opcode OP(200)"},
		{"guarded-off", p0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := &isa.Program{Name: "bad", NumRegs: 2, Code: []isa.Instr{
				{Op: isa.OpMOVI, Dst: 0, Imm: 1},
				{Op: isa.Op(200), Dst: 1, SrcA: 0, Pred: c.guard},
				{Op: isa.OpEXIT},
			}}
			build := func() *device.Job { return oneWarpJob(prog, 256) }
			fast, slow := onBothCores(func() *sim.Result { return sim.Run(build(), cfg, sim.Options{}) })
			sameResult(t, "µop", fast, "reference", slow)
			got := ""
			if fast.Err != nil {
				got = fast.Err.Error()
			}
			if got != c.wantErr {
				t.Errorf("Result.Err = %q, want %q", got, c.wantErr)
			}
			checkLifetimes(t, build, 0, everyCycle)
		})
	}
}

// The injection-layer property that makes one production core safe: every
// injection path must tally bit-identically on both cores — faulty runs
// included, where the cores execute corrupted programs whose trajectories
// never appeared in any golden run.

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

// campaignCases: VA covers the storage arrays; LUD (real barriers and
// divergence) the control sites.
var campaignCases = []struct {
	app        string
	structures []gpu.Structure
	models     func() map[string]faultmodel.Model
}{
	{"VA", gpu.Structures[:], storageModels},
	{"LUD", gpu.ControlStructures[:], controlModels},
}

func buildApp(t *testing.T, name string) *device.Job {
	t.Helper()
	app, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app.Build()
}

// onBothCores runs f once per core and returns what each produced.
func onBothCores[T any](f func() T) (uop, reference T) {
	sim.OnReference(func() { reference = f() })
	return f(), reference
}

// TestReferenceParityBruteForce: brute-force Inject campaigns across
// structures × fault models must tally identically on both cores.
func TestReferenceParityBruteForce(t *testing.T) {
	cfg := gpu.Volta()
	for _, cs := range campaignCases {
		t.Run(cs.app, func(t *testing.T) {
			job := buildApp(t, cs.app)
			g, err := microfi.Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, mdl := range cs.models() {
				for _, st := range cs.structures {
					tgt := microfi.Target{Structure: st, Model: mdl}
					for seed := int64(1); seed <= 2; seed++ {
						got, want := onBothCores(func() campaign.Tally {
							return campaign.Run(campaign.Options{Runs: 2, Seed: seed}, func(run int, rng *rand.Rand) faults.Result {
								return microfi.Inject(job, g, tgt, rng)
							})
						})
						if got != want {
							t.Errorf("%s %s seed %d: µop tally %+v != reference %+v", name, st, seed, got, want)
						}
					}
				}
			}
		})
	}
}

// TestReferenceParityCheckpointed: the checkpointed fork-and-join path, with
// the golden run and its snapshots captured by the core that then resumes,
// restores, compares and joins on them, must classify every run identically
// across structures × fault models, and join it at the same cycle.
func TestReferenceParityCheckpointed(t *testing.T) {
	cfg := gpu.Volta()
	for _, cs := range campaignCases {
		t.Run(cs.app, func(t *testing.T) {
			job := buildApp(t, cs.app)
			probe, err := microfi.Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := microfi.CheckpointSpec{Stride: probe.Res.Cycles/6 + 1, Converge: true}
			fast, slow := onBothCores(func() *microfi.GoldenRun {
				g, err := microfi.GoldenCheckpointed(job, cfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				return g
			})
			for name, mdl := range cs.models() {
				for _, st := range cs.structures {
					tgt := microfi.Target{Structure: st, Model: mdl}
					got := checkpointedRuns(job, fast, tgt)
					var want []joinedRun
					sim.OnReference(func() { want = checkpointedRuns(job, slow, tgt) })
					for run := range got {
						if got[run] != want[run] {
							t.Errorf("%s %s run %d: µop %+v != reference %+v", name, st, run, got[run], want[run])
						}
					}
				}
			}
		})
	}
}

// joinedRun is what one checkpointed run reports: its classification, and
// whether and at which cycle it joined golden.
type joinedRun struct {
	res         faults.Result
	converged   bool
	convergedAt int64
}

// checkpointedRuns injects runs 0 and 1 of the campaign with seed 3 (the
// rand streams campaign.Run would hand them) one at a time, reading each
// run's join off the golden run's converge counters: a joined run adds one
// hit and the golden cycles past its join.
func checkpointedRuns(job *device.Job, g *microfi.GoldenRun, tgt microfi.Target) []joinedRun {
	var out []joinedRun
	for run := int64(0); run < 2; run++ {
		before := g.CheckpointCounts()
		r := joinedRun{res: microfi.Inject(job, g, tgt, rand.New(rand.NewSource(3+run)))}
		after := g.CheckpointCounts()
		if after.ConvergeHits > before.ConvergeHits {
			r.converged = true
			r.convergedAt = g.Res.Cycles - (after.ConvergeCyclesSaved - before.ConvergeCyclesSaved)
		}
		out = append(out, r)
	}
	return out
}

// TestReferenceParityStaticPrune: the static-interval pruning injector must
// agree on both cores, on the register file and on every cache — same prune
// decisions (the intervals come from a schedule trace and the cache data
// record from the cache events of the same run, identical by the sim-level
// parity) and same outcomes for the runs that do simulate. K-Means reads
// its features through L1T, but each texture line is evicted before any
// cycle after its fill reads it again, so every L1T draw must prune on both.
func TestReferenceParityStaticPrune(t *testing.T) {
	cfg := gpu.Volta()
	job := buildApp(t, "K-Means")
	type traced struct {
		static *microfi.StaticIntervals
		g      *microfi.GoldenRun
	}
	fast, slow := onBothCores(func() traced {
		static, err := microfi.TraceStatic(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := microfi.Golden(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return traced{static, g}
	})
	for _, st := range []gpu.Structure{gpu.RF, gpu.L1D, gpu.L1T, gpu.L2} {
		tgt := microfi.Target{Structure: st}
		pruned := 0
		for seed := int64(0); seed < 60; seed++ {
			got, gotPruned := microfi.InjectStatic(job, fast.g, fast.static, tgt, rand.New(rand.NewSource(seed)))
			if gotPruned {
				pruned++
			}
			var want faults.Result
			var wantPruned bool
			sim.OnReference(func() {
				want, wantPruned = microfi.InjectStatic(job, slow.g, slow.static, tgt, rand.New(rand.NewSource(seed)))
			})
			if got != want || gotPruned != wantPruned {
				t.Fatalf("%v seed %d: µop %+v/%v != reference %+v/%v", st, seed, got, gotPruned, want, wantPruned)
			}
		}
		if pruned == 0 || (pruned == 60) != (st == gpu.L1T) {
			t.Errorf("%v: %d of 60 runs pruned", st, pruned)
		}
	}
}

// TestReferenceParityAdaptive: the sequential early-stopping engine must make
// the same stop decisions and produce the same tally on both cores — batch
// tallies feed the Wilson-score margin, so a single diverging outcome would
// change where the campaign stops.
func TestReferenceParityAdaptive(t *testing.T) {
	cfg := gpu.Volta()
	job := buildApp(t, "VA")
	g, err := microfi.Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := microfi.Target{Structure: gpu.RF}
	got, want := onBothCores(func() adaptive.Result {
		return adaptive.Run(campaign.Options{Runs: 120, Seed: 5}, adaptive.Policy{Margin: 0.25, Batch: 20},
			func(run int, rng *rand.Rand) faults.Result { return microfi.Inject(job, g, tgt, rng) })
	})
	if got != want {
		t.Fatalf("adaptive result diverges:\nµop       %+v\nreference %+v", got, want)
	}
}

// injectOnce is microfi's faulty run for a persistent model spelled out
// against sim.Run, so that a test can see the sim.Result a classification was
// made from (microfi.Inject returns the class alone). For a whole-application
// target it consumes the rand stream exactly as Inject does — the launch
// windows tile [1, Cycles], so the cycle draw is the same — and
// TestReferenceParityPersistentRuns holds it to Inject's answer run by run.
func injectOnce(job *device.Job, g *microfi.GoldenRun, st gpu.Structure, mdl faultmodel.Model, seed int64) (faults.Result, *sim.Result) {
	rng := rand.New(rand.NewSource(seed))
	cycle := 1 + rng.Int63n(g.Res.Cycles)
	var applier faultmodel.Applier
	hit := false
	opts := sim.Options{
		MaxCycles: g.Res.Cycles * int64(g.Cfg.TimeoutFactor),
		AtCycle:   cycle,
		OnCycle:   func(m *sim.Machine) { applier, hit = mdl.Arm(m, st, rng) },
		EachCycle: func(m *sim.Machine) {
			if applier != nil {
				applier(m)
			}
		},
	}
	if g.Snaps != nil {
		opts.Resume = g.Snaps.Before(cycle)
	}
	res := sim.Run(job, g.Cfg, opts)
	return microfi.Classify(g, res, hit), res
}

// TestReferenceParityPersistentRuns compares persistent-fault experiments run
// by run, not tally by tally. A stuck cell or latch is re-asserted at the top
// of every cycle the loop steps, and the loop steps far fewer cycles on the
// µop core than under the oracle; equal tallies could hide two runs that
// trade classes, so every draw must end in the same class and the same
// sim.Result — cycle count, spans, per-kernel statistics — on both cores,
// brute force and forked from a checkpoint.
func TestReferenceParityPersistentRuns(t *testing.T) {
	cfg := gpu.Volta()
	// A run whose warps a latch parks for good walks its whole cycle budget
	// on the oracle, twice per draw; parity does not depend on the budget's
	// size, so a smaller one than the default 10 × golden keeps this quick.
	cfg.TimeoutFactor = 4
	draws := int64(20)
	if testing.Short() || raceDetector {
		draws = 4
	}
	for _, cs := range campaignCases {
		t.Run(cs.app, func(t *testing.T) {
			job := buildApp(t, cs.app)
			type goldens struct{ brute, forked *microfi.GoldenRun }
			fast, slow := onBothCores(func() goldens {
				brute, err := microfi.Golden(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				forked, err := microfi.GoldenCheckpointed(job, cfg, microfi.CheckpointSpec{Stride: brute.Res.Cycles/6 + 1, Converge: true})
				if err != nil {
					t.Fatal(err)
				}
				return goldens{brute, forked}
			})
			outcomes := map[faults.Outcome]int{}
			var stepped, steppedRef int64 // brute force, µop core and oracle
			for name, mdl := range cs.models() {
				if !mdl.Persistent() {
					continue
				}
				for _, st := range cs.structures {
					for seed := int64(1); seed <= draws; seed++ {
						want, wantRes := injectOnce(job, fast.brute, st, mdl, seed)
						outcomes[want.Outcome]++
						check := func(label string, got faults.Result, gotRes *sim.Result) {
							t.Helper()
							if got != want {
								t.Errorf("%s %s seed %d: %s classifies %+v, µop brute force %+v", name, st, seed, label, got, want)
							}
							sameResult(t, label, gotRes, "µop brute force", wantRes)
						}
						got, gotRes := injectOnce(job, fast.forked, st, mdl, seed)
						check("µop forked", got, gotRes)
						sim.OnReference(func() { got, gotRes = injectOnce(job, slow.brute, st, mdl, seed) })
						check("reference brute force", got, gotRes)
						stepped += wantRes.Stepped
						steppedRef += gotRes.Stepped
						sim.OnReference(func() { got, gotRes = injectOnce(job, slow.forked, st, mdl, seed) })
						check("reference forked", got, gotRes)
						tgt := microfi.Target{Structure: st, Model: mdl}
						if got := microfi.Inject(job, fast.forked, tgt, rand.New(rand.NewSource(seed))); got != want {
							t.Errorf("%s %s seed %d: microfi.Inject classifies %+v, its transcription here %+v", name, st, seed, got, want)
						}
					}
				}
			}
			t.Logf("%v; cycles stepped: µop core %d, reference core %d", outcomes, stepped, steppedRef)
			if stepped*2 > steppedRef {
				t.Errorf("the µop core stepped %d cycles where the oracle stepped %d: persistent faults still pay for idle cycles", stepped, steppedRef)
			}
		})
	}
}
