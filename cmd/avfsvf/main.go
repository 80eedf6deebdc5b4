// Command avfsvf regenerates the paper's tables and figures: the full
// cross-layer study over all 11 benchmarks / 23 kernels.
//
// Usage:
//
//	avfsvf -n 300                 # everything (campaign size 300/point)
//	avfsvf -fig 1 -n 3000         # one figure at the paper's sample size
//	avfsvf -table 1
//	avfsvf -fig 12                # no campaigns needed
//	avfsvf -speed                 # the §I footnote-1 speed comparison
//	avfsvf -faultmodels -n 100 -faultmodels-apps VA,BFS
//	                              # cross-model outcome table: transient vs
//	                              # stuck-at vs MBU vs control-state faults
//	avfsvf -fig 1 -json           # machine-readable NDJSON instead of tables
//	avfsvf -daemon http://host:8080 -fig 2
//	                              # campaigns run on a gpureld daemon
//
// Campaign cost scales linearly in -n; the defaults keep a laptop run in
// minutes. Figures 7-11 share the same hardened campaigns and are emitted
// together whenever any of them is requested.
//
// With -json, each requested figure prints one JSON line
// {"figure":"...","data":...} whose data payload reuses the library's
// result structs (gpurel.AppPoint, gpurel.KernelPoint, campaign.Tally, ...)
// — the same types the gpureld service API serves, so daemon and CLI output
// stay directly comparable.
//
// With -daemon, every campaign point is submitted to a running gpureld
// instead of being computed in-process. Seeds are derived identically on
// both paths (gpurel.PointSeed), so the numbers match bit for bit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/cliutil"
	"gpurel/internal/gpu"
	"gpurel/internal/microfi"
)

// emitJSON writes one NDJSON figure record with the campaign sizing fields
// (n, margin99) alongside the data payload.
func emitJSON(w io.Writer, name string, n int, data any) error {
	return json.NewEncoder(w).Encode(gpurel.NewRecord(name, n, data))
}

func main() {
	var (
		n       = flag.Int("n", 300, "injections per campaign point (paper: 3000)")
		seed    = flag.Int64("seed", 1, "base seed")
		fig     = flag.Int("fig", 0, "regenerate one figure (1-12); 0 = all")
		table   = flag.Int("table", 0, "regenerate one table (1); 0 with -fig 0 = all")
		speed   = flag.Bool("speed", false, "measure the AVF vs SVF assessment speed gap")
		jsonOut = flag.Bool("json", false, "emit machine-readable NDJSON figure results")
		daemon  = flag.String("daemon", "", "submit campaigns to a running gpureld at this base URL instead of computing locally")
		adapt   = flag.Bool("adaptive", false, "adaptive sampling: stop each campaign point early once its Wilson 99% CI half-width reaches the target margin")
		margin  = flag.Float64("margin", 0, "target 99% CI half-width for -adaptive (0 = the worst-case margin of -n); implies -adaptive")
		prune   = flag.Bool("prune", false, "liveness-guided pruning of RF injections (bit-identical to brute force)")
		ckpt    = flag.Int64("snap-stride", 0, "golden-run snapshot stride in cycles for fork-and-join injection (0 = off, -1 = auto)")
		ckMB    = flag.Int64("snap-mb", 0, "snapshot memory budget in MiB per golden run (0 = default 256, negative = unlimited)")
		conv    = flag.Bool("converge", false, "join faulty runs back to golden at the first matching checkpoint; implies -snap-stride -1 if unset")
		fmodels = flag.Bool("faultmodels", false, "emit the cross-model outcome table: transient vs stuck-at vs MBU per storage structure, flip vs forced latch per control-state site (heavy: ~29 campaign sets; pair with a small -n)")
		fmApps  = flag.String("faultmodels-apps", "", "comma-separated app subset for -faultmodels (empty = all 11 benchmarks)")
	)
	prof := cliutil.Profiling(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfsvf:", err)
		os.Exit(1)
	}
	defer stopProf()

	s := gpurel.NewStudy(*n, *seed)
	if *daemon != "" {
		s.RunPoint = client.New(*daemon).RunPoint(context.Background())
	}
	if *adapt || *margin > 0 || *prune {
		target := *margin
		if *adapt && target == 0 {
			target = campaign.WorstCaseMargin99(*n)
		}
		s.Sampling = &gpurel.SamplingPolicy{Margin: target, Prune: *prune}
		s.Counters = &adaptive.Counters{}
	}
	if *conv && *ckpt == 0 {
		*ckpt = microfi.AutoStride
	}
	if *ckpt != 0 {
		s.Checkpoint = microfi.CheckpointSpec{Stride: *ckpt, BudgetBytes: *ckMB << 20, Converge: *conv}
	}
	all := *fig == 0 && *table == 0 && !*speed && !*fmodels

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "avfsvf:", err)
		os.Exit(1)
	}
	// emit prints one figure either as the paper-style table or as one
	// NDJSON line carrying the library result structs.
	emit := func(name string, data any, text string, err error) {
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			if err := emitJSON(os.Stdout, name, *n, data); err != nil {
				fail(err)
			}
			return
		}
		fmt.Println(text)
	}

	if all || *fig == 1 {
		pts, txt, err := s.Figure1()
		emit("fig1", pts, txt, err)
	}
	if all || *fig == 2 {
		pts, txt, err := s.Figure2()
		emit("fig2", pts, txt, err)
	}
	if all || *table == 1 {
		rows, txt, err := s.TableI()
		emit("table1", rows, txt, err)
	}
	if all || *fig == 3 {
		pts, txt, err := s.Figure3()
		emit("fig3", pts, txt, err)
	}
	if all || *fig == 4 {
		pts, txt, err := s.Figure4()
		emit("fig4", pts, txt, err)
	}
	if all || *fig == 5 {
		pts, txt, err := s.Figure5()
		emit("fig5", pts, txt, err)
	}
	if *fig == 6 {
		emit("fig6", nil, "Figure 6 is the TMR workflow diagram; see internal/harden (no data to regenerate).", nil)
	}
	if all || (*fig >= 7 && *fig <= 11) {
		pts, err := s.Hardened()
		if err != nil {
			fail(err)
		}
		if all || *fig == 7 {
			emit("fig7", pts, gpurel.Figure7(pts), nil)
		}
		if all || *fig == 8 {
			emit("fig8", pts, gpurel.Figure8(pts), nil)
		}
		if all || *fig == 9 {
			emit("fig9", pts, gpurel.Figure9(pts), nil)
		}
		if all || *fig == 10 {
			emit("fig10", pts, gpurel.Figure10(pts), nil)
		}
		if all || *fig == 11 {
			emit("fig11", pts, gpurel.Figure11(pts), nil)
		}
	}
	if all || *fig == 12 {
		a, txt := gpurel.Figure12()
		emit("fig12", a, txt, nil)
	}
	if *fmodels {
		var apps []string
		if *fmApps != "" {
			apps = strings.Split(*fmApps, ",")
		}
		rows, txt, err := s.FaultModelFigure(apps)
		emit("faultmodels", rows, txt, err)
	}
	if all || *speed {
		micro, soft, err := s.SpeedComparison("SRADv1", 5)
		if err != nil {
			fail(err)
		}
		emit("speed",
			map[string]any{"micro_ns_per_run": micro.Nanoseconds(), "soft_ns_per_run": soft.Nanoseconds()},
			fmt.Sprintf("Assessment speed (SRADv1): cross-layer %v/run, software-level %v/run → %.0f× gap\n"+
				"(the paper's footnote 1: 1258 vs 10 machine-days at full scale)",
				micro, soft, float64(micro)/float64(soft)),
			nil)
	}
	if all {
		ab, txt, err := s.MultiBitAblation("VA", "K1", gpu.RF, []int{1, 2, 4})
		emit("multibit", ab, txt, err)
	}
}
