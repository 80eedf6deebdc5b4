package microfi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// ckSpecFor derives an explicit stride from a known golden run so the tests
// skip the AutoStride probe run.
func ckSpecFor(g *GoldenRun, converge bool) CheckpointSpec {
	return CheckpointSpec{Stride: g.Res.Cycles/6 + 1, Converge: converge}
}

// TestCheckpointEquivalenceAllApps is the load-bearing property behind
// fork-and-join: for every application, every hardware structure and several
// campaign seeds, a campaign run against a checkpointed golden (forked
// resumes + convergence joins) must tally bit-identically to the same
// campaign against a brute-force golden.
func TestCheckpointEquivalenceAllApps(t *testing.T) {
	cfg := gpu.Volta()
	const runsPerPoint = 2
	var total CheckpointCounts
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			brute, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := GoldenCheckpointed(job, cfg, ckSpecFor(brute, true))
			if err != nil {
				t.Fatal(err)
			}
			if ck.Res.Cycles != brute.Res.Cycles || !bytes.Equal(ck.Res.Output, brute.Res.Output) {
				t.Fatal("checkpointing perturbed the golden run itself")
			}
			for _, st := range gpu.Structures {
				tgt := Target{Structure: st}
				for seed := int64(1); seed <= 3; seed++ {
					opts := campaign.Options{Runs: runsPerPoint, Seed: seed}
					want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						return Inject(job, brute, tgt, rng)
					})
					got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						return Inject(job, ck, tgt, rng)
					})
					if got != want {
						t.Errorf("%s seed %d: checkpointed tally %+v != brute-force %+v",
							st, seed, got, want)
					}
				}
			}
			total.Add(ck.CheckpointCounts())
		})
	}
	t.Logf("aggregate: %+v", total)
	if total.ForkResumes == 0 {
		t.Error("no run across any app resumed from a checkpoint")
	}
	if total.ConvergeHits == 0 {
		t.Error("no run across any app converged back to golden")
	}
	if total.Snapshots == 0 || total.SnapshotBytes == 0 {
		t.Error("snapshot inventory empty")
	}
}

// TestCheckpointEquivalenceTMR covers the hardened variant (replicated
// launches + voter) and the converge-off configuration on the same campaign.
func TestCheckpointEquivalenceTMR(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := harden.TMR(app.Build())
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Structure: gpu.RF, IncludeVote: true}
	for _, converge := range []bool{false, true} {
		ck, err := GoldenCheckpointed(job, cfg, ckSpecFor(brute, converge))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			opts := campaign.Options{Runs: 3, Seed: seed}
			want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
				return Inject(job, brute, tgt, rng)
			})
			got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
				return Inject(job, ck, tgt, rng)
			})
			if got != want {
				t.Errorf("converge=%v seed %d: TMR tally %+v != brute-force %+v",
					converge, seed, got, want)
			}
		}
		if converge && ck.CheckpointCounts().ConvergeHits == 0 {
			t.Log("no TMR run converged at this sample size (acceptable)")
		}
		if !converge && ck.CheckpointCounts().ConvergeHits != 0 {
			t.Error("converge=false recorded convergence hits")
		}
	}
}

// TestCheckpointStaticEquivalence: the static-pruning injector goes through
// the same accelerate/converge path; pin it to brute-force InjectStatic.
func TestCheckpointStaticEquivalence(t *testing.T) {
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
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := GoldenCheckpointed(job, cfg, ckSpecFor(brute, true))
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Structure: gpu.RF}
	for seed := int64(0); seed < 40; seed++ {
		want, wantPruned := InjectStatic(job, brute, static, tgt, rand.New(rand.NewSource(seed)))
		got, gotPruned := InjectStatic(job, ck, static, tgt, rand.New(rand.NewSource(seed)))
		if got != want || gotPruned != wantPruned {
			t.Fatalf("seed %d: %+v/%v != %+v/%v", seed, got, gotPruned, want, wantPruned)
		}
	}
}

// verifyRoundTrip resumes the fault-free run from each retained snapshot of
// g and requires a bit-identical finish — outputs, cycle count, launch
// spans, per-kernel stats (which carry the DRAM counters).
func verifyRoundTrip(t *testing.T, job *device.Job, cfg gpu.Config, g *GoldenRun) {
	t.Helper()
	if g.Snaps.Len() == 0 {
		t.Fatal("no snapshots captured")
	}
	for i := 0; i < g.Snaps.Len(); i++ {
		s := g.Snaps.Snap(i)
		res := sim.Run(job, cfg, sim.Options{MaxCycles: goldenCycleBudget(job), Resume: s})
		if res.Err != nil || res.TimedOut {
			t.Fatalf("resume from cycle %d failed: %v timeout=%v", s.Cycle(), res.Err, res.TimedOut)
		}
		if res.Cycles != g.Res.Cycles {
			t.Fatalf("resume from cycle %d: %d cycles, want %d", s.Cycle(), res.Cycles, g.Res.Cycles)
		}
		if !bytes.Equal(res.Output, g.Res.Output) {
			t.Fatalf("resume from cycle %d: output differs", s.Cycle())
		}
		if len(res.Spans) != len(g.Res.Spans) {
			t.Fatalf("resume from cycle %d: %d spans, want %d", s.Cycle(), len(res.Spans), len(g.Res.Spans))
		}
		for k := range res.Spans {
			if res.Spans[k] != g.Res.Spans[k] {
				t.Fatalf("resume from cycle %d: span %d diverges", s.Cycle(), k)
			}
		}
		if len(res.PerKernel) != len(g.Res.PerKernel) {
			t.Fatalf("resume from cycle %d: kernel stats missing", s.Cycle())
		}
		for name, ks := range res.PerKernel {
			ref := g.Res.PerKernel[name]
			if ref == nil || *ks != *ref {
				t.Fatalf("resume from cycle %d: kernel %s stats diverge:\n%+v\n%+v",
					s.Cycle(), name, ks, ref)
			}
		}
	}
}

// TestCheckpointRoundTripAllApps: the round-trip property on the default
// grid, for every shipped application.
func TestCheckpointRoundTripAllApps(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			g, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: AutoStride})
			if err != nil {
				t.Fatal(err)
			}
			verifyRoundTrip(t, job, cfg, g)
		})
	}
}

// TestCheckpointRoundTripEvicted: the round-trip property when a tight
// budget forces stride doubling — survivors of the eviction path are COW
// snapshots whose shared pages went through re-basing, and every one must
// still restore exactly. Every shipped application is covered.
func TestCheckpointRoundTripEvicted(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			probe, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dense grid, then a budget sized from a probe: room for the
			// first (un-based, full-size) snapshot plus half the COW deltas,
			// so some snapshots always fit but the stride must double at
			// least once to shed the rest.
			dense, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: probe.Res.Cycles/16 + 1})
			if err != nil {
				t.Fatal(err)
			}
			if dense.Snaps.Len() < 4 {
				t.Skipf("golden run too short to force evictions: %d snaps", dense.Snaps.Len())
			}
			full := dense.Snaps.Snap(0).Bytes()
			g, err := GoldenCheckpointed(job, cfg, CheckpointSpec{
				Stride:      probe.Res.Cycles/16 + 1,
				BudgetBytes: full + (dense.Snaps.Bytes()-full)/2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if g.CheckpointCounts().Evictions == 0 {
				t.Fatal("budget forced no evictions; the eviction path is untested")
			}
			verifyRoundTrip(t, job, cfg, g)
		})
	}
}

// TestGoldenCheckpointedDisabled: a zero spec must behave exactly like
// Golden — no snapshots, no pool, no counters.
func TestGoldenCheckpointedDisabled(t *testing.T) {
	job := saxpyJob(256)
	g, err := GoldenCheckpointed(job, gpu.Volta(), CheckpointSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Snaps != nil {
		t.Error("disabled spec captured snapshots")
	}
	if c := g.CheckpointCounts(); c != (CheckpointCounts{}) {
		t.Errorf("disabled spec has counts %+v", c)
	}
	r := Inject(job, g, Target{Structure: gpu.RF, Kernel: "K1"}, rand.New(rand.NewSource(1)))
	if r.Outcome >= faults.NumOutcomes {
		t.Errorf("bad outcome %v", r.Outcome)
	}
}

// TestGoldenCycleBudget: a kernel that spins forever must be caught by the
// schedule-derived cycle budget instead of hanging the golden run.
func TestGoldenCycleBudget(t *testing.T) {
	spin := &isa.Program{
		Name:    "spin",
		NumRegs: 1,
		Code: []isa.Instr{
			{Op: isa.OpBRA, Target: 0, Reconv: 1}, // PT-guarded: branch to self
			{Op: isa.OpEXIT},
		},
	}
	if err := spin.Validate(); err != nil {
		t.Fatal(err)
	}
	job := &device.Job{
		Name: "spin", Mem: device.NewMemory(1 << 16), MaxSteps: 1,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: spin, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
		}}},
	}
	if got, want := goldenCycleBudget(job), int64(1)*GoldenCyclesPerStep; got != want {
		t.Fatalf("budget = %d, want %d", got, want)
	}
	if _, err := Golden(job, gpu.Volta()); err == nil {
		t.Fatal("spinning golden run must fail the timeout vet")
	}
	if _, err := GoldenCheckpointed(job, gpu.Volta(), CheckpointSpec{Stride: 1 << 10}); err == nil {
		t.Fatal("spinning checkpointed golden run must fail the timeout vet")
	}
}

// TestCheckpointBudgetWidening: a deliberately tiny budget must widen the
// stride (evicting snapshots) while keeping injection bit-identical.
func TestCheckpointBudgetWidening(t *testing.T) {
	cfg := gpu.Volta()
	job := saxpyJob(256)
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Size the budget from a probe so exactly a couple of snapshots fit.
	probe, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: brute.Res.Cycles/12 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Snaps.Len() < 4 {
		t.Skipf("golden run too short: %d snaps", probe.Snaps.Len())
	}
	perSnap := probe.Snaps.Bytes() / int64(probe.Snaps.Len())
	g, err := GoldenCheckpointed(job, cfg, CheckpointSpec{
		Stride:      brute.Res.Cycles/12 + 1,
		BudgetBytes: 2*perSnap + perSnap/2,
		Converge:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := g.CheckpointCounts()
	if c.Evictions == 0 {
		t.Error("tight budget evicted nothing")
	}
	if g.Snaps.Bytes() > 2*perSnap+perSnap/2 {
		t.Errorf("retained %d bytes over budget", g.Snaps.Bytes())
	}
	tgt := Target{Structure: gpu.RF, Kernel: "K1"}
	for seed := int64(0); seed < 30; seed++ {
		want := Inject(job, brute, tgt, rand.New(rand.NewSource(seed)))
		got := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
		if got != want {
			t.Fatalf("seed %d: %+v != %+v", seed, got, want)
		}
	}
}

// TestSnapshotDensityCOW is the copy-on-write acceptance property, in two
// parts. Under a budget the set never holds more than the budget, which is
// sized from the set's first capture (it has no provenance base to share
// with, so it is a full copy of the machine). And on the unbudgeted set,
// page sharing must at least halve what the storage pages would cost as
// standalone copies: Σ PageBytes ≥ 2 × the retained page bytes, which are
// the set's Bytes() less every snapshot's unshared state. The page-level
// check does not depend on how large the device image is next to the
// caches and fixed state, which a count of snapshots in a budget does.
func TestSnapshotDensityCOW(t *testing.T) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("PathFinder")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stride := brute.Res.Cycles/32 + 1
	ref, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: stride, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Snaps.Len() < 8 {
		t.Skipf("golden run too short for a density comparison: %d snaps", ref.Snaps.Len())
	}
	var standalone, fixed int64
	for i := 0; i < ref.Snaps.Len(); i++ {
		s := ref.Snaps.Snap(i)
		standalone += s.PageBytes()
		fixed += s.Bytes() - s.PageBytes()
	}
	retained := ref.Snaps.Bytes() - fixed
	t.Logf("%d snapshots: %.1fMB of standalone pages retained in %.1fMB (%.1f×)",
		ref.Snaps.Len(), float64(standalone)/(1<<20), float64(retained)/(1<<20), float64(standalone)/float64(retained))
	if standalone < 2*retained {
		t.Errorf("page sharing retains %d of %d standalone page bytes, want <= 1/2", retained, standalone)
	}

	const copies = 4
	budget := copies * ref.Snaps.Snap(0).Bytes()
	cow, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: stride, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	cc := cow.CheckpointCounts()
	t.Logf("budget %.1fMB = %d first captures: the set retains %d of %d (%.1fMB)",
		float64(budget)/(1<<20), copies, cc.Snapshots, ref.Snaps.Len(), float64(cc.SnapshotBytes)/(1<<20))
	if cc.SnapshotBytes > budget {
		t.Errorf("the snapshot set holds %d bytes, over its %d-byte budget", cc.SnapshotBytes, budget)
	}
	if cc.Snapshots == 0 {
		t.Error("the budget holds four first captures but the set kept none")
	}
}

// BenchmarkCheckpoint_Speedup is the checkpointing acceptance benchmark: a
// fixed RF campaign against a checkpointed golden run (fork resumes +
// convergence joins + machine pooling) must finish at least 3× faster than
// the same campaign brute-forced from cycle zero, while tallying
// bit-identically. The floor was 2× before the hot-loop overhaul; the µop
// core shifted more of a brute-force run's cost into simulated cycles that
// forks and joins skip, so checkpointing now buys 4.4–4.8× on an idle
// machine. With GPUREL_BENCH_JSON set, a machine-readable summary is
// written there for the CI artifact.
func BenchmarkCheckpoint_Speedup(b *testing.B) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("SRADv1")
	if err != nil {
		b.Fatal(err)
	}
	job := app.Build()
	const runs = 40
	brute, err := Golden(job, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ck, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: brute.Res.Cycles/24 + 1, Converge: true})
	if err != nil {
		b.Fatal(err)
	}
	tgt := Target{Structure: gpu.RF}
	opts := campaign.Options{Runs: runs, Seed: 7, Workers: 1}

	var bruteTally, ckTally campaign.Tally
	var bruteDur, ckDur time.Duration
	var allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		bruteTally = campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
			return Inject(job, brute, tgt, rng)
		})
		t1 := time.Now()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ckTally = campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
			return Inject(job, ck, tgt, rng)
		})
		runtime.ReadMemStats(&ms1)
		ckDur += time.Since(t1)
		bruteDur += t1.Sub(t0)
		allocs += ms1.Mallocs - ms0.Mallocs
	}
	b.StopTimer()

	if ckTally != bruteTally {
		b.Fatalf("checkpointed tally %+v != brute-force %+v", ckTally, bruteTally)
	}
	speedup := float64(bruteDur) / float64(ckDur)
	if speedup < 3 {
		b.Fatalf("checkpointed campaign only %.2f× faster than brute force, want >= 3×", speedup)
	}
	nsPerRun := float64(ckDur.Nanoseconds()) / float64(runs*b.N)
	allocsPerRun := float64(allocs) / float64(runs*b.N)
	b.ReportMetric(speedup, "x-speedup")
	b.ReportMetric(nsPerRun, "ns/run")
	b.ReportMetric(allocsPerRun, "allocs/run")

	if path := os.Getenv("GPUREL_BENCH_JSON"); path != "" {
		c := ck.CheckpointCounts()
		out, err := json.MarshalIndent(map[string]any{
			"benchmark":             "Checkpoint_Speedup",
			"app":                   app.Name,
			"runs":                  runs * b.N,
			"ns_op":                 nsPerRun,
			"brute_ns_op":           float64(bruteDur.Nanoseconds()) / float64(runs*b.N),
			"speedup":               speedup,
			"allocs_op":             allocsPerRun,
			"fork_resumes":          c.ForkResumes,
			"fork_cycles_saved":     c.ForkCyclesSaved,
			"converge_hits":         c.ConvergeHits,
			"converge_cycles_saved": c.ConvergeCyclesSaved,
			"snapshots":             c.Snapshots,
			"snapshot_bytes":        c.SnapshotBytes,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
