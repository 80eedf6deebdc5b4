package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gpurel"
	"gpurel/internal/ace"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/mem"
	"gpurel/internal/microfi"
	"gpurel/internal/service"
	"gpurel/internal/sim"
	"gpurel/internal/softfi"
	"gpurel/internal/uop"
)

// Per-layer probes: each times calls into one layer's exported functions
// from outside. They run in the traced pass only, outside the timed region.

// timeIt returns the median wall time of reps calls.
func timeIt(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// snapModel charges a forked run one restore and a converged run one
// matching join compare, at the per-app cost the probes measured on the
// workload's own snapshot sets.
type snapModel struct {
	restore, join map[string]int64 // ns
}

func (m *snapModel) split(app string, dur int64, forked, joined bool) (restore, join int64) {
	if m == nil {
		return 0, 0
	}
	if forked {
		restore = m.restore[app]
	}
	if joined {
		join = m.join[app]
	}
	if sum := restore + join; sum > dur && sum > 0 {
		restore = restore * dur / sum
		join = dur - restore
	}
	return restore, join
}

// probeSnapshots measures capture, restore and join compare on the snapshot
// sets the workload built, and returns the cost model for the traced passes.
// A workload without snapshots reports nothing here.
func probeSnapshots(cfg runConfig, study *gpurel.Study, apps []string, res *runResult) *snapModel {
	m := &snapModel{restore: map[string]int64{}, join: map[string]int64{}}
	var captureUs, restoreUs, joinUs []float64
	noop := func(*sim.Machine) {}
	for _, app := range apps {
		e, err := study.Eval(app)
		if err != nil || e.MicroG.Snaps == nil || e.MicroG.Snaps.Len() < 2 {
			continue
		}
		g, job, chip := e.MicroG, e.Job, e.MicroG.Cfg
		snaps := g.Snaps

		// capture: (checkpointed golden - plain golden) / snapshots taken.
		stride := g.Ckpt.Stride
		if stride < 0 {
			stride = max(1, g.Res.Cycles/microfi.DefaultSnapshots)
		}
		var taken int64
		plain := timeIt(cfg.reps(3), func() { sim.Run(job, chip, sim.Options{}) })
		captured := timeIt(cfg.reps(3), func() {
			set := sim.NewSnapshotSet(stride, microfi.DefaultCheckpointBudget)
			sim.Run(job, chip, sim.Options{Checkpoint: set})
			taken = int64(set.Len()) + set.Evicted()
		})
		if taken > 0 {
			captureUs = append(captureUs, us(captured-plain)/float64(taken))
		}

		// restore and join, on up to eight snapshots spread over the run.
		pool := sim.NewRunPool()
		var rs, js []float64
		n := min(8, snaps.Len()-1)
		for k := 0; k < n; k++ {
			i := k * (snaps.Len() - 1) / n
			s, next := snaps.Snap(i), snaps.Snap(i+1)
			rs = append(rs, float64(timeIt(cfg.reps(5), func() {
				sim.Run(job, chip, sim.Options{Resume: s, MaxCycles: s.Cycle() + 1, Pool: pool})
			})))
			// A no-op fault at the first resumed cycle arms the join probe;
			// the state still equals golden, so the next checkpoint matches:
			// the full compare a converging run pays once.
			with := timeIt(cfg.reps(5), func() {
				sim.Run(job, chip, sim.Options{Resume: s, AtCycle: s.Cycle() + 1, OnCycle: noop, Converge: snaps, Pool: pool})
			})
			without := timeIt(cfg.reps(5), func() {
				sim.Run(job, chip, sim.Options{Resume: s, AtCycle: s.Cycle() + 1, OnCycle: noop, MaxCycles: next.Cycle(), Pool: pool})
			})
			js = append(js, float64(max(0, with-without)))
		}
		m.restore[app], m.join[app] = int64(median(rs)), int64(median(js))
		restoreUs = append(restoreUs, median(rs)/1e3)
		joinUs = append(joinUs, median(js)/1e3)
	}
	if len(restoreUs) > 0 {
		res.set("snapshot.capture_us", median(captureUs))
		res.set("snapshot.restore_us", median(restoreUs))
		res.set("snapshot.join_us", median(joinUs))
		res.Samples["snapshot.restore_us"] = len(restoreUs)
	}
	return m
}

// programs lists a job's distinct kernels in schedule order.
func programs(job *device.Job) []*isa.Program {
	var out []*isa.Program
	seen := map[*isa.Program]bool{}
	for _, s := range job.Steps {
		if s.Launch != nil && !seen[s.Launch.Kernel] {
			seen[s.Launch.Kernel] = true
			out = append(out, s.Launch.Kernel)
		}
	}
	return out
}

// probeLayers runs the probes that do not depend on the workload: the same
// eleven applications, fixed seeds, so their exact counts are the same on
// every workload and seed.
func probeLayers(cfg runConfig, res *runResult) {
	chip := gpu.Volta()
	apps := kernels.All()
	jobs := make([]*device.Job, len(apps))
	res.set("kernels.build_ms", ms(timeIt(cfg.reps(3), func() {
		for i, a := range apps {
			jobs[i] = a.Build()
		}
	})))
	res.set("harden.tmr_ms", ms(timeIt(cfg.reps(3), func() {
		for _, j := range jobs {
			harden.TMR(j)
		}
	})))

	var instrs int
	compile := timeIt(cfg.reps(5), func() {
		instrs = 0
		for _, j := range jobs {
			for _, p := range programs(j) {
				uop.Compile(p) //nolint:errcheck — every shipped kernel compiles; the golden probe below would fail otherwise
				instrs += len(p.Code)
			}
		}
	})
	res.set("uop.compile_us_per_instr", us(compile)/float64(instrs))

	probeSim(cfg, chip, jobs, res)
	probeMem(cfg, chip, res)
	probeFuncsim(cfg, jobs, res)
	probePruners(cfg, chip, apps, jobs, res)

	noopRuns := cfg.scaled(20000)
	noop := func(int, *rand.Rand) faults.Result { return faults.Result{} }
	d := timeIt(cfg.reps(3), func() { campaign.RunRange(campaign.Options{Runs: noopRuns, Seed: 1, Workers: 1}, 0, noopRuns, noop) })
	res.set("campaign.overhead_ns_per_run", float64(d)/float64(noopRuns))

	pol := adaptive.Policy{Margin: 0.0235}
	tally := campaign.Tally{N: 3000, Counts: [faults.NumOutcomes]int{2500, 400, 50, 50}}
	var sink bool
	d = timeIt(cfg.reps(3), func() {
		for i := 0; i < 100000; i++ {
			tally.Counts[0] = 2500 + i&1
			sink = pol.StopSatisfied(tally) != sink
		}
	})
	res.set("adaptive.stop_check_ns", float64(d)/100000)

	probeService(cfg, res)
}

// probeSim times the fault-free cycle simulation of every app and records
// the simulated statistics, which are exact.
func probeSim(cfg runConfig, chip gpu.Config, jobs []*device.Job, res *runResult) {
	var cycles, instrs, dramR, dramW int64
	var l1d, l1t, l2 mem.Stats
	d := timeIt(cfg.reps(3), func() {
		cycles, instrs, dramR, dramW = 0, 0, 0, 0
		l1d, l1t, l2 = mem.Stats{}, mem.Stats{}, mem.Stats{}
		for _, j := range jobs {
			r := sim.Run(j, chip, sim.Options{})
			cycles += r.Cycles
			for _, ks := range r.PerKernel {
				instrs += ks.DynInstrs
				dramR += ks.DRAMRead
				dramW += ks.DRAMWrite
				for _, p := range []struct{ dst, src *mem.Stats }{{&l1d, &ks.L1D}, {&l1t, &ks.L1T}, {&l2, &ks.L2}} {
					p.dst.Accesses += p.src.Accesses
					p.dst.Misses += p.src.Misses
				}
			}
		}
	})
	hitRate := func(s mem.Stats) float64 {
		if s.Accesses == 0 {
			return 0
		}
		return 100 * float64(s.Accesses-s.Misses) / float64(s.Accesses)
	}
	res.set("sim.golden_ns_per_cycle", float64(d)/float64(cycles))
	res.set("sim.golden_minstr_per_s", float64(instrs)/d.Seconds()/1e6)
	res.set("sim.golden_cycles", float64(cycles))
	res.set("sim.golden_instrs", float64(instrs))
	res.set("sim.ipc", float64(instrs)/float64(cycles))
	res.set("mem.l1d_hit_rate", hitRate(l1d))
	res.set("mem.l1t_hit_rate", hitRate(l1t))
	res.set("mem.l2_hit_rate", hitRate(l2))
	res.set("mem.dram_reads", float64(dramR))
	res.set("mem.dram_writes", float64(dramW))
}

// probeMem drives one SM's hierarchy with a hit-heavy stream (a working set
// that fits L1D) and a miss-heavy one (uniform over device memory).
func probeMem(cfg runConfig, chip gpu.Config, res *runResult) {
	accesses := cfg.scaled(400000)
	stream := func(span uint32) time.Duration {
		var dr, dw int64
		h := mem.Hierarchy{
			L1D:      mem.NewCache("L1D", chip.L1DBytes, chip.LineSize, chip.L1Ways, chip.L1MSHRs),
			L1T:      mem.NewCache("L1T", chip.L1TBytes, chip.LineSize, chip.L1Ways, chip.L1MSHRs),
			L2:       mem.NewCache("L2", chip.L2Bytes, chip.LineSize, chip.L2Ways, chip.L2MSHRs),
			DRAMRead: &dr, DRAMWrite: &dw,
			L1Lat: int64(chip.L1Lat), L2Lat: int64(chip.L2Lat), DRAMLat: int64(chip.DRAMLat),
		}
		dram := device.NewMemory(kernels.MemCapacity)
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint32, accesses)
		for i := range addrs {
			addrs[i] = (rng.Uint32() % span) &^ 3
		}
		// One access in flight at a time: the clock advances by each
		// access's latency, so fills retire as they would under a stalled warp.
		var now int64
		return timeIt(cfg.reps(3), func() {
			for i, a := range addrs {
				if i%4 == 3 {
					now += h.Store(dram, a, uint32(i), true, now)
				} else {
					_, lat := h.Load(dram, a, false, true, now)
					now += lat
				}
			}
		})
	}
	res.set("mem.hit_ns_per_access", float64(stream(uint32(chip.L1DBytes/2)))/float64(accesses))
	res.set("mem.miss_ns_per_access", float64(stream(kernels.MemCapacity))/float64(accesses))
}

func probeFuncsim(cfg runConfig, jobs []*device.Job, res *runResult) {
	var instrs int64
	d := timeIt(cfg.reps(3), func() {
		instrs = 0
		for _, j := range jobs {
			instrs += funcsim.Run(j, funcsim.Options{}).DynInstrs
		}
	})
	res.set("funcsim.golden_minstr_per_s", float64(instrs)/d.Seconds()/1e6)
	res.set("softfi.golden_ms", ms(timeIt(cfg.reps(3), func() {
		for _, j := range jobs {
			softfi.Golden(j) //nolint:errcheck — the set-up already proved these goldens build
		}
	})))
}

// prunerDraws is how many fault sites per point the pruners are asked
// about. Sites are counted, not applied: the workloads stay unpruned.
const prunerDraws = 12

// probePruners times the two liveness tracers and counts, on the
// avf_forkjoin RF and SMEM points, how many sites each would prune.
func probePruners(cfg runConfig, chip gpu.Config, apps []kernels.App, jobs []*device.Job, res *runResult) {
	statics := make([]*microfi.StaticIntervals, len(jobs))
	lives := make([]*ace.Liveness, len(jobs))
	res.set("flow.trace_static_ms", ms(timeIt(1, func() {
		for i, j := range jobs {
			statics[i], _ = microfi.TraceStatic(j, chip)
		}
	})))
	res.set("ace.trace_rf_ms", ms(timeIt(1, func() {
		for i, j := range jobs {
			lives[i], _ = ace.TraceRF(j, chip)
		}
	})))
	var staticPruned, staticDraws, acePruned, aceDraws int
	for i, a := range apps {
		g, err := microfi.GoldenCheckpointed(jobs[i], chip, forkJoin)
		if err != nil || statics[i] == nil || lives[i] == nil {
			continue
		}
		for _, k := range a.Kernels {
			for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
				t := microfi.Target{Structure: st, Kernel: k}
				for run := 0; run < cfg.scaled(prunerDraws); run++ {
					seed := int64(i*1000 + run)
					if _, pruned := microfi.InjectStatic(jobs[i], g, statics[i], t, rand.New(rand.NewSource(seed))); pruned {
						staticPruned++
					}
					staticDraws++
					if st != gpu.RF {
						continue
					}
					if _, pruned := microfi.InjectPruned(jobs[i], g, lives[i], t, rand.New(rand.NewSource(seed))); pruned {
						acePruned++
					}
					aceDraws++
				}
			}
		}
	}
	res.set("flow.static_prune_rate", 100*float64(staticPruned)/float64(max(1, staticDraws)))
	res.set("ace.prune_rate", 100*float64(acePruned)/float64(max(1, aceDraws)))
}

// probeService times the scheduler's ledger calls and its whole-file
// journal at fixed residency: 120 jobs of 100 runs, claimed and reported in
// leases of 16 like the daemon_fleet workload.
func probeService(cfg runConfig, res *runResult) {
	path := filepath.Join(cfg.tmp, "probe-journal.json")
	sched, err := service.NewScheduler(service.Config{
		Source:             func(service.JobSpec) (campaign.Experiment, error) { return nil, nil },
		DisableLocalExec:   true,
		CheckpointPath:     path,
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		res.fail("service probe: %v", err)
		return
	}
	defer sched.Close()
	var submitUs, claimUs, reportUs []float64
	flush := func() float64 { return ms(timeIt(cfg.reps(5), func() { sched.Flush() })) } //nolint:errcheck — timing only
	drain := func() {
		for {
			t0 := time.Now()
			w, ok := sched.ClaimWork(16)
			claimUs = append(claimUs, us(time.Since(t0)))
			if !ok {
				return
			}
			tl := campaign.Tally{N: w.Runs()}
			tl.Counts[faults.Masked] = w.Runs()
			t0 = time.Now()
			sched.ReportWork(w.JobID, w.From, w.To, tl) //nolint:errcheck — the job was just claimed
			reportUs = append(reportUs, us(time.Since(t0)))
		}
	}
	for i := 0; i < 120; i++ {
		spec := service.JobSpec{Layer: "micro", App: "VA", Kernel: "K1", Structure: "RF", Runs: 100, Seed: int64(i)}
		t0 := time.Now()
		if _, err := sched.Submit(spec); err != nil {
			res.fail("service probe submit: %v", err)
			return
		}
		submitUs = append(submitUs, us(time.Since(t0)))
		if i == 9 {
			drain()
			res.set("service.flush_ms_10", flush())
		}
	}
	drain()
	res.set("service.flush_ms_120", flush())
	if fi, err := os.Stat(path); err == nil {
		res.set("service.journal_kb", float64(fi.Size())/1024)
	}
	res.set("service.submit_us", median(submitUs))
	res.set("service.claim_us", median(claimUs))
	res.set("service.report_us", median(reportUs))
	res.Samples["service.claim_us"] = len(claimUs)
}

// reportRunSpans turns the traced per-run spans into the run-time metrics
// of the injector the workload used.
func reportRunSpans(rec *recorder, res *runResult) {
	var micro, soft []float64
	for _, s := range rec.spans {
		switch s.Name {
		case "microfi.run":
			micro = append(micro, float64(s.End-s.Start)/1e3)
		case "softfi.run":
			soft = append(soft, float64(s.End-s.Start)/1e3)
		}
	}
	if len(micro) > 0 {
		res.set("microfi.run_us_p50", median(micro))
		res.set("microfi.run_us_p99", quantile(micro, 0.99))
		res.Samples["microfi.run_us_p50"] = len(micro)
	}
	if len(soft) > 0 {
		res.set("softfi.run_us_p50", median(soft))
		res.set("softfi.run_us_p99", quantile(soft, 0.99))
		res.Samples["softfi.run_us_p50"] = len(soft)
	}
}

// reportLayers reports each layer's self-time share of the traced timed
// region (total is that region's wall time, summed over the timelines that
// ran in parallel) and how much of it named layer spans account for.
func reportLayers(rec *recorder, res *runResult, total time.Duration) {
	names, layers := rec.selfTimes()
	res.Spans = names
	res.SpansHead = rec.spans[:min(len(rec.spans), 1000)]
	res.LayerMs = map[string]float64{}
	var named time.Duration
	for layer, d := range layers {
		res.LayerMs[layer] = ms(d)
		if layer != "bench" {
			named += d
		}
		if def := findMetric(perLayer, "self."+layer+"_pct"); def != nil {
			res.set(def.Name, 100*d.Seconds()/total.Seconds())
		}
	}
	res.set("trace_attributed_pct", 100*named.Seconds()/total.Seconds())
}
