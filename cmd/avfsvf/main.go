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
// instead of being computed in-process, the multi-bit ablation's included:
// all of them run through the study's one campaign runner
// (gpurel.Study.RunAt). Seeds are derived identically on both paths
// (gpurel.PointSeed, or the ablation's own campaign seeds), so the numbers
// match bit for bit. -adaptive likewise applies to every point.
package main

import (
	"context"
	"encoding/json"
	"errors"
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
)

// emitJSON writes one NDJSON figure record with the campaign sizing fields
// (n, margin99) alongside the data payload.
func emitJSON(w io.Writer, name string, n int, data any) error {
	return json.NewEncoder(w).Encode(gpurel.NewRecord(name, n, data))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state made explicit: the figures for args on
// stdout, diagnostics on stderr, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avfsvf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 300, "injections per campaign point (paper: 3000)")
		seed    = fs.Int64("seed", 1, "base seed")
		fig     = fs.Int("fig", 0, "regenerate one figure (1-12); 0 = all")
		table   = fs.Int("table", 0, "regenerate one table (1); 0 with -fig 0 = all")
		speed   = fs.Bool("speed", false, "measure the AVF vs SVF assessment speed gap")
		jsonOut = fs.Bool("json", false, "emit machine-readable NDJSON figure results")
		daemon  = fs.String("daemon", "", "submit campaigns to a running gpureld at this base URL instead of computing locally")
		adapt   = fs.Bool("adaptive", false, "adaptive sampling: stop each campaign point early once its Wilson 99% CI half-width reaches the target margin")
		margin  = fs.Float64("margin", 0, "target 99% CI half-width for -adaptive (0 = the worst-case margin of -n); implies -adaptive")
		fmodels = fs.Bool("faultmodels", false, "emit the cross-model outcome table: transient vs stuck-at vs MBU per storage structure, flip vs forced latch per control-state site (heavy: ~29 campaign sets; pair with a small -n)")
		fmApps  = fs.String("faultmodels-apps", "", "comma-separated app subset for -faultmodels (empty = all 11 benchmarks)")
	)
	prof := cliutil.Profiling(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "avfsvf:", err)
		return 1
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	s := gpurel.NewStudy(*n, *seed)
	if *daemon != "" {
		s.RunPoint = client.New(*daemon).RunPoint(context.Background())
	}
	if *adapt || *margin > 0 {
		target := *margin
		if *adapt && target == 0 {
			target = campaign.WorstCaseMargin99(*n)
		}
		s.Sampling = &gpurel.SamplingPolicy{Margin: target}
		s.Counters = &adaptive.Counters{}
	}
	all := *fig == 0 && *table == 0 && !*speed && !*fmodels

	// Figures 7-11 are views over the same hardened campaigns, which the
	// study memoises: each view asks for them again and pays once.
	hardened := func(render func([]gpurel.HardenedPoint) string) func() (any, string, error) {
		return func() (any, string, error) {
			pts, err := s.Hardened()
			if err != nil {
				return nil, "", err
			}
			return pts, render(pts), nil
		}
	}
	figures := []struct {
		on   bool
		name string
		make func() (data any, text string, err error)
	}{
		{all || *fig == 1, "fig1", func() (any, string, error) { return s.Figure1() }},
		{all || *fig == 2, "fig2", func() (any, string, error) { return s.Figure2() }},
		{all || *table == 1, "table1", func() (any, string, error) { return s.TableI() }},
		{all || *fig == 3, "fig3", func() (any, string, error) { return s.Figure3() }},
		{all || *fig == 4, "fig4", func() (any, string, error) { return s.Figure4() }},
		{all || *fig == 5, "fig5", func() (any, string, error) { return s.Figure5() }},
		{*fig == 6, "fig6", func() (any, string, error) {
			return nil, "Figure 6 is the TMR workflow diagram; see internal/harden (no data to regenerate).", nil
		}},
		{all || *fig == 7, "fig7", hardened(gpurel.Figure7)},
		{all || *fig == 8, "fig8", hardened(gpurel.Figure8)},
		{all || *fig == 9, "fig9", hardened(gpurel.Figure9)},
		{all || *fig == 10, "fig10", hardened(gpurel.Figure10)},
		{all || *fig == 11, "fig11", hardened(gpurel.Figure11)},
		{all || *fig == 12, "fig12", func() (any, string, error) {
			a, txt := gpurel.Figure12()
			return a, txt, nil
		}},
		{*fmodels, "faultmodels", func() (any, string, error) {
			var apps []string
			if *fmApps != "" {
				apps = strings.Split(*fmApps, ",")
			}
			return s.FaultModelFigure(apps)
		}},
		{all || *speed, "speed", func() (any, string, error) {
			micro, soft, err := s.SpeedComparison("SRADv1", 5)
			return map[string]any{"micro_ns_per_run": micro.Nanoseconds(), "soft_ns_per_run": soft.Nanoseconds()},
				fmt.Sprintf("Assessment speed (SRADv1): cross-layer %v/run, software-level %v/run → %.0f× gap\n"+
					"(the paper's footnote 1: 1258 vs 10 machine-days at full scale)",
					micro, soft, float64(micro)/float64(soft)), err
		}},
		{all, "multibit", func() (any, string, error) { return s.MultiBitAblation("VA", "K1", gpu.RF, []int{1, 2, 4}) }},
	}
	// Each requested figure prints either as the paper-style table or as
	// one NDJSON line carrying the library result structs.
	for _, f := range figures {
		if !f.on {
			continue
		}
		data, text, err := f.make()
		switch {
		case err != nil:
		case *jsonOut:
			err = emitJSON(stdout, f.name, *n, data)
		default:
			_, err = fmt.Fprintln(stdout, text)
		}
		if err != nil {
			return fail(err)
		}
	}
	return 0
}
