package softfi

import (
	"maps"
	"math/rand"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/kernels"
)

// spinApp counts i up to a bound with a != exit test and touches memory only
// to store the sum: a flip that lifts i past the bound spins until the
// instruction budget runs out. The 11 applications index memory by their
// loop counters, so there such a flip faults long before it can time out.
func spinApp() kernels.App {
	const threads, bound = 32, 6
	b := kasm.New("spin")
	tid := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), b.S2R(isa.SRTidX))
	n := b.Ldg(b.Param(1), 0)
	i, acc := b.MovI(0), b.MovI(0)
	p := b.P()
	b.While(func() (isa.Pred, bool) {
		b.ISetp(p, isa.CmpNE, i, n)
		return p, false
	}, func() {
		b.IAddTo(acc, acc, i)
		b.IAddITo(i, i, 1)
	})
	b.FreeP(p)
	b.Stg(b.IScAdd(tid, b.Param(0), 2), 0, acc)
	prog := b.MustBuild()
	return kernels.App{Name: "spin", Kernels: []string{"K1", "K2"}, Build: func() *device.Job {
		m := device.NewMemory(1 << 16)
		out := m.Alloc("out", 4*4*threads)
		n := m.Alloc("bound", 4)
		m.PokeU32(n, bound)
		launch := func(name string, at uint32) device.Step {
			return device.Step{Launch: &device.Launch{Kernel: prog, KernelName: name,
				GridX: 2, GridY: 1, BlockX: threads, BlockY: 1,
				Params: []uint32{at, n}, ParamIsPtr: []bool{true, true}}}
		}
		return &device.Job{
			Name: "spin", Mem: m,
			Steps:   []device.Step{launch("K1", out), launch("K2", out+2*4*threads)},
			Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * 4 * threads}},
		}
	}}
}

// launches counts kernel launches per kernel: the shape of the schedule a
// run walked.
func launches(res *funcsim.Result) map[string]int {
	out := map[string]int{}
	for name, kc := range res.PerKernel {
		out[name] = len(kc.DstWindows)
	}
	return out
}

// TestSoftForkJoinEquivalence: Inject (fork from a checkpoint, take from
// golden the CTAs and warps that read no corrupted word, join back to
// golden) returns,
// field for field, what classifying a replay of the whole job with the same
// fault returns — on every application (and spinApp, for
// the timeouts), whole-app and per-kernel targets, all three modes, plain and
// TMR-hardened. The campaign side runs on four workers so -race sees the
// shared checkpoints.
func TestSoftForkJoinEquivalence(t *testing.T) {
	// The replays dominate the cost and the race detector slows the executor
	// about thirtyfold, so under it each cell of the matrix keeps two seeds.
	// BFS keeps more: it is the only schedule a fault can bend, and does so
	// in about one run in forty.
	seeds := func(app string) int {
		switch {
		case !raceDetector:
			return 24
		case app == "BFS":
			return 10
		}
		return 2
	}
	var saw struct {
		forks, joins, timeouts, dues, sdcs int
		ctrlJoin, diverged                 int
		skips, refusals, skipJoin          int
		// the warp steps: a fork between two warps of a CTA, a warp taken
		// from the record, a join between two warps, and the job's last
		// step taken from the record
		warpFork, warpSkip, warpJoin, lastSkip int
	}
	for _, app := range append(kernels.All(), spinApp()) {
		for _, tmr := range []bool{false, true} {
			job := app.Build()
			if tmr {
				job = harden.TMR(job)
			}
			g, err := Golden(job)
			if err != nil {
				t.Fatalf("%s: %v", job.Name, err)
			}
			shape := launches(g.Res)
			for _, kernel := range append([]string{""}, app.Kernels...) {
				for _, mode := range []Mode{SVF, SVFLD, SVFUse} {
					tgt := Target{Kernel: kernel, Mode: mode, IncludeVote: tmr}
					opts := campaign.Options{Runs: seeds(app.Name), Seed: 1000*int64(mode) + int64(len(kernel)), Workers: 4}
					got := make([]faults.Result, opts.Runs)
					before := g.CheckpointCounts()
					campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						got[run] = Inject(job, g, tgt, rng)
						return got[run]
					})
					after := g.CheckpointCounts()
					saw.forks += int(after.Forks - before.Forks)
					saw.joins += int(after.Joins - before.Joins)
					saw.skips += int(after.Skips - before.Skips)

					// the oracle: the same draws, replayed from the start of
					// the job; campaign.Run hands run i the same rng again
					type replayed struct {
						inj                funcsim.Injection
						want               faults.Result
						diverged, ctrlJoin bool
						refused, skipJoin  bool
						warpFork, warpSkip bool
						warpJoin, lastSkip bool
					}
					ref := make([]replayed, opts.Runs)
					campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
						r := &ref[run]
						r.inj, _ = tgt.draw(g, rng)
						replay := funcsim.Run(job, funcsim.Options{MaxDynInstrs: g.budget(), Inject: &r.inj, CollectWindows: true})
						r.want = Classify(g, replay)
						r.diverged = replay.Err == nil && !replay.TimedOut && !maps.Equal(launches(replay), shape)
						fj := g.run(job, r.inj)
						r.ctrlJoin = r.want.CtrlAffected && fj.Joined
						r.refused = fj.ReadRefusals > 0
						r.skipJoin = fj.Skips > 0 && fj.Joined
						cps := g.Res.Checkpoints
						r.warpFork = cps.BetweenWarps(cps.ForkPoint(r.inj))
						r.warpSkip = fj.WarpSkips > 0
						r.warpJoin = fj.Joined && cps.BetweenWarps(fj.JoinedAt)
						r.lastSkip = fj.LastSkip == cps.Len()-2
						return r.want
					})
					for run, r := range ref {
						if got[run] != r.want {
							t.Fatalf("%s %+v run %d %+v: fork-join %+v, replay %+v", job.Name, tgt, run, r.inj, got[run], r.want)
						}
						switch r.want.Outcome {
						case faults.Timeout:
							saw.timeouts++
						case faults.DUE:
							saw.dues++
						case faults.SDC:
							saw.sdcs++
						}
						if r.diverged {
							saw.diverged++
						}
						if r.ctrlJoin {
							saw.ctrlJoin++
						}
						if r.refused {
							saw.refusals++
						}
						if r.skipJoin {
							saw.skipJoin++
						}
						if r.warpFork {
							saw.warpFork++
						}
						if r.warpSkip {
							saw.warpSkip++
						}
						if r.warpJoin {
							saw.warpJoin++
						}
						if r.lastSkip {
							saw.lastSkip++
						}
					}
				}
			}
		}
	}
	t.Logf("saw %+v", saw)
	if saw.forks == 0 || saw.joins == 0 || saw.timeouts == 0 || saw.dues == 0 || saw.sdcs == 0 ||
		saw.ctrlJoin == 0 || saw.diverged == 0 || saw.skips == 0 || saw.refusals == 0 || saw.skipJoin == 0 ||
		saw.warpFork == 0 || saw.warpSkip == 0 || saw.warpJoin == 0 || saw.lastSkip == 0 {
		t.Errorf("an axis of the matrix is vacuous: %+v", saw)
	}
}

// TestCheckpointCountsAddUp: every injection either forks or starts at the
// job's first boundary, the skipped work is bounded by the golden run, and
// the inventory matches the schedule.
func TestCheckpointCountsAddUp(t *testing.T) {
	job := twoKernelJob(64)
	g, err := Golden(job)
	if err != nil {
		t.Fatal(err)
	}
	c := g.CheckpointCounts()
	// two launches of one barrier-free CTA of two warps: four warp steps,
	// and the end of the job
	if c.Boundaries != 5 || c.DeltaBytes == 0 || c.Forks != 0 || c.Joins != 0 {
		t.Fatalf("fresh golden run: %+v", c)
	}
	const n = 50
	k1, k2 := g.Res.PerKernel["K1"].DynInstrs, g.Res.PerKernel["K2"].DynInstrs
	win := g.Res.PerKernel["K2"].DstWindows[0]
	var want int64 // K1, and K2's first warp when the site lies in its second
	tgt := Target{Kernel: "K2", Mode: SVF}
	for seed := int64(0); seed < n; seed++ {
		inj, _ := tgt.draw(g, rand.New(rand.NewSource(seed)))
		want += k1
		if inj.Index >= win.Start+win.Len()/2 {
			want += k2 / 2
		}
		Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
	}
	c = g.CheckpointCounts()
	if c.Forks != n {
		t.Errorf("every K2 injection forks at a K2 warp boundary: %d of %d", c.Forks, n)
	}
	if c.ForkInstrsSkipped != want {
		t.Errorf("fork skipped %d thread-instructions, want %d", c.ForkInstrsSkipped, want)
	}
	var sum CheckpointCounts
	sum.Add(c)
	sum.Add(c)
	if sum.Forks != 2*c.Forks || sum.Boundaries != 2*c.Boundaries || sum.DeltaBytes != 2*c.DeltaBytes {
		t.Errorf("Add: %+v", sum)
	}
}
