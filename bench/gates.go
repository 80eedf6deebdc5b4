package main

import (
	"encoding/json"
	"os"

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/gpu"
	"gpurel/internal/microfi"
	"gpurel/internal/softfi"
)

// The correctness gate. Every failure counts in failed_ops and makes the
// run exit non-zero.

// anchorTally is the repository's known-good campaign: VA/K1/RF, 300 runs,
// campaign seed 1 (docs and the verify notes quote FR = 0.1533).
var anchorTally = [4]int{254, 29, 0, 17}

// gateAnchor is gate (a): the anchor campaign still tallies as recorded.
func gateAnchor(res *runResult) {
	res.Attempted++
	st := gpurel.NewStudy(300, 1)
	fn, err := st.PointExperiment(gpurel.PointSpec{Layer: gpurel.LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF})
	if err != nil {
		res.fail("anchor: %v", err)
		return
	}
	t := campaign.Run(campaign.Options{Runs: 300, Seed: 1, Workers: 1}, fn)
	if t.Counts != anchorTally {
		res.fail("anchor VA/K1/RF runs=300 seed=1 tallied %v, want %v", t.Counts, anchorTally)
	}
}

// gateOtherPath is gate (b): three points re-executed on the other
// injection path (brute force for the checkpointed workloads, fork-and-join
// for avf_brute) must tally identically over their first runs.
func gateOtherPath(w *workload, b *built, cfg runConfig, res *runResult) {
	if b.points[0].Layer != gpurel.LayerMicro {
		return
	}
	other := forkJoin
	if w.checkpoint.Enabled() {
		other = microfi.CheckpointSpec{}
	}
	st := gpurel.NewStudy(0, cfg.seed)
	st.Workers = 1
	st.Checkpoint = other
	n := cfg.scaled(gateRuns)
	for _, i := range []int{0, len(b.points) / 2, len(b.points) - 1} {
		res.Attempted++
		fn, err := st.PointExperiment(b.points[i])
		if err != nil {
			res.fail("other path %s: %v", pointLabel(b.points[i]), err)
			continue
		}
		opts := b.sliceOpts(i)
		want := campaign.RunRange(opts, 0, n, fn)
		got := campaign.RunRange(opts, 0, n, b.exps[i])
		if got != want {
			res.fail("%s: first %d runs tally %+v on the workload path, %+v on the other path", pointLabel(b.points[i]), n, got, want)
		}
	}
}

// expectedDigests is bench/expected.json: per workload, the digests at the
// default seed and full scale.
type expectedDigests map[string]struct {
	TallyDigest    string `json:"tally_digest"`
	SimStatsDigest string `json:"sim_stats_digest"`
}

// gateExpected is gate (d): at the default seed the digests equal the
// recorded ones, so a change in what is simulated cannot pass as a speed-up.
func gateExpected(cfg runConfig, res *runResult) {
	if cfg.seed != defaultSeed || cfg.scale != 1 {
		return
	}
	res.Attempted++
	data, err := os.ReadFile("expected.json") // the working directory is bench/: go run -C bench
	if err != nil {
		res.fail("expected.json: %v", err)
		return
	}
	var exp expectedDigests
	if err := json.Unmarshal(data, &exp); err != nil {
		res.fail("expected.json: %v", err)
		return
	}
	want, ok := exp[res.Workload]
	switch {
	case !ok:
		res.fail("expected.json has no entry for %s (got tally_digest %s sim_stats_digest %s)", res.Workload, res.TallyDigest, res.SimStatsDigest)
	case want.TallyDigest != res.TallyDigest:
		res.fail("tally_digest %s, expected %s", res.TallyDigest, want.TallyDigest)
	case want.SimStatsDigest != res.SimStatsDigest:
		res.fail("sim_stats_digest %s, expected %s", res.SimStatsDigest, want.SimStatsDigest)
	}
}

func gates(w *workload, b *built, cfg runConfig, res *runResult) {
	gateAnchor(res)
	gateOtherPath(w, b, cfg, res)
	gateExpected(cfg, res)
}

// simStatsDigest hashes the fault-free simulated statistics of every app
// the workload built: cycles, spans and per-kernel counters of the cycle
// simulator, and the functional executor's per-kernel counts. A simulator
// speed-up must leave it unchanged.
func simStatsDigest(study *gpurel.Study, apps []string) string {
	d := newDigest()
	for _, app := range apps {
		e, err := study.Eval(app)
		if err != nil {
			continue
		}
		for _, g := range []*microfi.GoldenRun{e.MicroG, e.MicroGTMR} {
			d.add(app+"|cycles", g.Res.Cycles)
			for _, s := range g.Res.Spans {
				d.add(app+"|span|"+s.Kernel, s.Start, s.End, s.Threads, s.CTAs)
			}
			for _, k := range sortedKeys(g.Res.PerKernel) {
				ks := g.Res.PerKernel[k]
				d.add(app+"|kernel|"+k, ks.Cycles, ks.DynInstrs, ks.LoadInstrs, ks.StoreInstrs, ks.SmemInstrs,
					ks.L1D.Accesses, ks.L1D.Misses, ks.L1T.Accesses, ks.L1T.Misses, ks.L2.Accesses, ks.L2.Misses,
					ks.DRAMRead, ks.DRAMWrite, ks.OccupancySum, ks.Launches)
			}
		}
		for _, g := range []*softfi.GoldenRun{e.SoftG, e.SoftGTMR} {
			d.add(app+"|soft", g.Res.DynInstrs, g.Res.DstCands, g.Res.LoadCands, g.Res.UseCands)
			for _, k := range sortedKeys(g.Res.PerKernel) {
				kc := g.Res.PerKernel[k]
				d.add(app+"|soft|"+k, kc.DynInstrs, int64(len(kc.DstWindows)), int64(len(kc.LoadWindows)), int64(len(kc.UseWindows)))
			}
		}
	}
	return d.String()
}
