package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
)

// runConfig is one process run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	// scale shrinks the workload for bench_test.go (1 = as calibrated):
	// fewer points, shorter slices, shorter gate campaigns.
	scale float64
	trace bool
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// tmp is a scratch directory inside the checkout.
	tmp string
	// start is the process start, for setup_s.
	start time.Time
}

// digestPasses is how many leading passes every run executes whatever
// -seconds says; the tally digest and the exact counts cover exactly those,
// so they do not depend on how fast the machine is.
const digestPasses = 3

// gateRuns is the length of the brute-force re-execution in gate (b).
const gateRuns = 40

func (c runConfig) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*c.scale)))
}

// reps is how often a probe repeats a timed call (the median is reported).
func (c runConfig) reps(n int) int {
	if c.scale < 1 {
		return 1
	}
	return n
}

// built is a set-up workload: a warmed study and one experiment per point.
type built struct {
	study   *gpurel.Study
	points  []gpurel.PointSpec
	exps    []campaign.Experiment
	seeds   []int64
	apps    []string  // distinct apps in first-use order
	buildMs []float64 // first PointExperiment per app: golden runs + snapshots
	slice   int
}

// pointsAt returns the workload's points at the given scale: all of them at
// 1, an evenly spaced subset (at least three) below.
func (w *workload) pointsAt(scale float64) []gpurel.PointSpec {
	if scale >= 1 {
		return w.points
	}
	n := max(3, int(float64(len(w.points))*scale))
	out := make([]gpurel.PointSpec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, w.points[i*(len(w.points)-1)/(n-1)])
	}
	return out
}

// setup builds a fresh study and every point's experiment: job build, TMR,
// µop compile, golden runs on both simulators and snapshot capture all
// happen here, exactly as they would in a CLI or a fleet worker.
func setup(w *workload, cfg runConfig, ck microfi.CheckpointSpec) (*built, error) {
	st := gpurel.NewStudy(0, cfg.seed)
	st.Workers = 1
	st.Checkpoint = ck
	b := &built{study: st, points: w.pointsAt(cfg.scale), slice: cfg.scaled(w.slice)}
	dense := map[string]*microfi.CheckpointSpec{}
	seen := map[string]bool{}
	for _, p := range b.points {
		t0 := time.Now()
		if w.denseSnaps > 0 && ck.Enabled() {
			if dense[p.App] == nil {
				// The dense grid is sized from the golden length, which a
				// plain probe run measures first.
				app, err := kernels.ByName(p.App)
				if err != nil {
					return nil, err
				}
				probe, err := microfi.Golden(app.Build(), st.Cfg)
				if err != nil {
					return nil, err
				}
				snaps := max(8, int64(float64(w.denseSnaps)*cfg.scale))
				dense[p.App] = &microfi.CheckpointSpec{Stride: max(1, probe.Res.Cycles/snaps), Converge: true}
			}
			p.Checkpoint = dense[p.App]
		}
		fn, err := st.PointExperiment(p)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", w.name, p.App, p.Kernel, err)
		}
		if !seen[p.App] {
			seen[p.App] = true
			b.apps = append(b.apps, p.App)
			b.buildMs = append(b.buildMs, ms(time.Since(t0)))
		}
		b.exps = append(b.exps, fn)
		b.seeds = append(b.seeds, gpurel.PointSeed(cfg.seed, p))
	}
	return b, nil
}

// golden returns the micro golden run behind point i (nil for soft points).
func (b *built) golden(i int) *microfi.GoldenRun {
	p := b.points[i]
	if p.Layer != gpurel.LayerMicro {
		return nil
	}
	e, err := b.study.Eval(p.App)
	if err != nil {
		return nil
	}
	if p.Hardened {
		return e.MicroGTMR
	}
	return e.MicroG
}

// sliceOpts is the campaign sizing of one point: the run budget is open
// ended because passes keep claiming the next slice until time is up.
func (b *built) sliceOpts(i int) campaign.Options {
	return campaign.Options{Runs: math.MaxInt32, Seed: b.seeds[i], Workers: 1}
}

// passTiming is what one pass over all points measured.
type passTiming struct {
	dur    time.Duration
	runs   int
	slices []time.Duration // RunRange call per point
	firsts []time.Duration // slice start to first classified run
}

// pass runs slice p of every point. With a recorder it wraps every call in
// spans and splits each injection closure by the snapshot cost model.
func (b *built) pass(p int, tallies []campaign.Tally, rec *recorder, model *snapModel) passTiming {
	pt := passTiming{slices: make([]time.Duration, 0, len(b.exps)), firsts: make([]time.Duration, 0, len(b.exps))}
	passSpan := rec.open("pass", "bench", -1, int64(p))
	start := time.Now()
	for i, fn := range b.exps {
		var first time.Time
		sliceSpan := rec.open("campaign.RunRange", "campaign", passSpan, int64(i))
		wrapped := func(run int, rng *rand.Rand) faults.Result {
			r := fn(run, rng)
			if first.IsZero() {
				first = time.Now()
			}
			return r
		}
		if rec != nil {
			wrapped = b.traced(i, fn, &first, rec, sliceSpan, model)
		}
		t0 := time.Now()
		t := campaign.RunRange(b.sliceOpts(i), p*b.slice, (p+1)*b.slice, wrapped)
		pt.slices = append(pt.slices, time.Since(t0))
		pt.firsts = append(pt.firsts, first.Sub(t0))
		rec.end(sliceSpan)
		tallies[i].Merge(t)
		pt.runs += t.N
	}
	pt.dur = time.Since(start)
	rec.end(passSpan)
	return pt
}

// traced wraps point i's experiment so every run records a span. The
// benchmark cannot see inside the closure, so it splits a micro run by a
// model: a restore (if the run forked) and a join compare (if it converged)
// are charged what the probes measured for this app's snapshot set, and the
// remainder is simulation. Fork and join are read from the golden run's
// counters around the call, which is exact with Workers: 1.
func (b *built) traced(i int, fn campaign.Experiment, first *time.Time, rec *recorder, parent int32, model *snapModel) campaign.Experiment {
	g := b.golden(i)
	app := b.points[i].App
	return func(run int, rng *rand.Rand) faults.Result {
		id := int64(i)<<32 | int64(run)
		if g == nil {
			t0 := rec.now()
			r := fn(run, rng)
			rec.add("softfi.run", "softfi", t0, rec.now(), parent, id)
			if first.IsZero() {
				*first = time.Now()
			}
			return r
		}
		c0 := g.CheckpointCounts()
		t0 := rec.now()
		r := fn(run, rng)
		t1 := rec.now()
		c1 := g.CheckpointCounts()
		if first.IsZero() {
			*first = time.Now()
		}
		runSpan := rec.add("microfi.run", "sim", t0, t1, parent, id)
		restore, join := model.split(app, t1-t0, c1.ForkResumes > c0.ForkResumes, c1.ConvergeHits > c0.ConvergeHits)
		if restore > 0 {
			rec.add("snapshot.restore", "snapshot", t0, t0+restore, runSpan, id)
		}
		if join > 0 {
			rec.add("snapshot.join", "snapshot", t1-join, t1, runSpan, id)
		}
		return r
	}
}

// runInproc measures one in-process workload.
func runInproc(w *workload, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg)

	// Set-up, repeated so setup_s is a median; the last one is measured on.
	preamble := time.Since(cfg.start)
	var b *built
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = setup(w, cfg, w.checkpoint); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	after := b.study.CheckpointCounts()

	var rec *recorder
	var model *snapModel
	if cfg.trace {
		rec = newRecorder()
		model = probeSnapshots(cfg, b.study, b.apps, res)
	}

	// Passes. The first digestPasses always run and feed the digest and the
	// exact counts; pass 0 doubles as the untimed warm-up that fills pools
	// and µop caches.
	tallies := make([]campaign.Tally, len(b.exps))
	dg := newDigest()
	var timed []passTiming
	var overhead []float64
	var tracedDur time.Duration
	var counts microfi.CheckpointCounts
	minPasses := digestPasses
	if cfg.scale < 1 {
		minPasses = 1
	}
	begin := time.Now()
	for p := 0; p < minPasses || time.Since(begin).Seconds() < cfg.seconds; p++ {
		if cfg.trace && p >= minPasses {
			// The same slice twice, traced and untraced in alternating
			// order: identical work, so the ratio is the tracing overhead.
			scratch := make([]campaign.Tally, len(b.exps))
			var plain, traced passTiming
			if p%2 == 0 {
				plain = b.pass(p, scratch, nil, nil)
				traced = b.pass(p, tallies, rec, model)
			} else {
				traced = b.pass(p, tallies, rec, model)
				plain = b.pass(p, scratch, nil, nil)
			}
			timed = append(timed, plain)
			tracedDur += traced.dur
			overhead = append(overhead, 100*(traced.dur.Seconds()/plain.dur.Seconds()-1))
			continue
		}
		pt := b.pass(p, tallies, rec, model) // rec is nil on an untraced run
		tracedDur += pt.dur
		if p == 0 {
			begin = time.Now() // the warm-up is not part of the timed region
		} else if !cfg.trace {
			timed = append(timed, pt)
		}
		if p == minPasses-1 {
			for i, t := range tallies {
				dg.addTally(pointLabel(b.points[i]), t)
			}
			counts = b.study.CheckpointCounts()
		}
	}
	live := heapLiveMB()

	// Exact counts over the leading passes.
	runs := int64(minPasses * b.slice * len(b.exps))
	var goldenCycles int64
	for i := range b.exps {
		if g := b.golden(i); g != nil {
			goldenCycles += int64(minPasses*b.slice) * g.Res.Cycles
		}
	}
	res.Exact["microfi.fork_rate"] = 100 * float64(counts.ForkResumes-after.ForkResumes) / float64(runs)
	res.Exact["microfi.join_rate"] = 100 * float64(counts.ConvergeHits-after.ConvergeHits) / float64(runs)
	res.Exact["microfi.converge_disabled"] = float64(counts.ConvergeDisabled - after.ConvergeDisabled)
	res.Exact["microfi.sim_cycles_per_run"] = float64(goldenCycles-(counts.ForkCyclesSaved-after.ForkCyclesSaved)-(counts.ConvergeCyclesSaved-after.ConvergeCyclesSaved)) / float64(runs)
	res.Exact["snapshot.count"] = float64(after.Snapshots)
	res.Exact["snapshot.mb"] = float64(after.SnapshotBytes) / (1 << 20)
	res.Exact["snapshot.evictions"] = float64(after.Evictions)
	res.TallyDigest = dg.String()
	res.SimStatsDigest = simStatsDigest(b.study, b.apps)

	var rates, jobMs, firstMs []float64
	for _, pt := range timed {
		rates = append(rates, float64(pt.runs)/pt.dur.Seconds())
		for i := range pt.slices {
			jobMs = append(jobMs, ms(pt.slices[i]))
			firstMs = append(firstMs, ms(pt.firsts[i]))
		}
	}
	for _, t := range tallies {
		res.Attempted += int64(t.N)
	}

	if cfg.trace {
		for name, v := range res.Exact {
			res.set(name, v)
		}
		res.set("study.point_build_ms", median(b.buildMs))
		res.set("peak_rss_mb", peakRSSMB())
		probeLayers(cfg, res) // after the high-water mark is read: its goldens are not the workload's
		res.set("trace_overhead_pct", median(overhead))
		res.Samples["trace_overhead_pct"] = len(overhead)
		reportRunSpans(rec, res)
		reportLayers(rec, res, tracedDur)
		fillZero(res)
	} else {
		res.setEndToEnd(median(rates), len(rates), preamble.Seconds(), setupS, live, jobMs, firstMs)
	}

	gates(w, b, cfg, res)
	res.Correct = res.Failed == 0
	return res, nil
}

func pointLabel(p gpurel.PointSpec) string {
	if p.Layer == gpurel.LayerSoft {
		return fmt.Sprintf("soft|%s|%s|%v|%v", p.App, p.Kernel, p.Mode, p.Hardened)
	}
	fault := ""
	if p.Fault != nil {
		fault = p.Fault.Canonical()
	}
	return fmt.Sprintf("micro|%s|%s|%v|%s", p.App, p.Kernel, p.Structure, fault)
}

// fillZero reports 0 for every declared metric the workload never produced:
// its timed region does not enter that layer.
func fillZero(res *runResult) {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
}
