// Command gpufi runs a microarchitecture-level fault-injection campaign on
// one benchmark — the gpuFI-4 workflow: pick an application, a kernel and a
// hardware structure, inject n uniformly random single-bit flips, and report
// the outcome distribution, failure rate, derating factor and AVF. It is a
// flag front end over gpurel.Study: each structure is a study point run at
// the -seed given (Study.RunAt). Faulty runs fork from golden snapshots and
// join golden again as soon as their state matches it, and transient RF and
// SMEM draws that land in provably dead storage classify as Masked without
// being simulated (microfi.DefaultCheckpoint), all bit-identically to brute
// force; the footers say how much that saved.
//
// Usage:
//
//	gpufi -app SRADv1 -kernel K4 -structure RF -n 3000 [-seed 1] [-tmr] [-burst 1]
//	gpufi -app VA -structure all -n 1000
//	gpufi -app VA -structure all -n 3000 -adaptive
//	                        # adaptive sampling: stop each campaign at ±2.35%
//	gpufi -app VA -structure RF -n 3000 -model stuck -stuck 0
//	                        # permanent stuck-at-0 cell defects instead of
//	                        # transient flips
//	gpufi -app VA -structure SMEM -n 3000 -model mbu -burst 2 -lines 2
//	                        # spatial multi-bit upsets: 2 adjacent bits in 2
//	                        # adjacent rows
//	gpufi -app VA -structure ctrl -n 1000
//	                        # control-state faults: warp-scheduler entries,
//	                        # the SIMT divergence stack, barrier state
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpurel"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/cliutil"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/metrics"
	"gpurel/internal/microfi"
	"gpurel/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state made explicit: the campaign for args,
// the report on stdout, diagnostics on stderr, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpufi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName    = fs.String("app", "VA", "benchmark application (see -list)")
		kernel     = fs.String("kernel", "", "kernel name (K1..Kn); empty = whole application")
		structure  = fs.String("structure", "RF", "RF, SMEM, L1D, L1T, L2 or all")
		n          = fs.Int("n", 3000, "injections per campaign (paper: 3000 → ±2.35% at 99% confidence)")
		seed       = fs.Int64("seed", 1, "campaign seed")
		workers    = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		tmr        = fs.Bool("tmr", false, "harden the application with thread-level TMR first")
		burst      = fs.Int("burst", 1, "adjacent multi-bit burst width (1 = single-bit)")
		model      = fs.String("model", "", "fault model: transient (default), stuck, mbu or control (implied by control structures)")
		stuck      = fs.Int("stuck", -1, "stuck-at polarity 0 or 1 for -model stuck, or forced-latch polarity for control faults")
		lines      = fs.Int("lines", 1, "adjacent rows/lines an MBU cluster spans (-model mbu)")
		adaptiveOn = fs.Bool("adaptive", false, "stop each campaign early once the Wilson-score 99% CI half-width reaches the target margin")
		margin     = fs.Float64("margin", 0, "target 99% CI half-width for -adaptive (0 = the paper's ±2.35%); implies -adaptive")
		list       = fs.Bool("list", false, "list benchmarks and kernels")
	)
	prof := cliutil.Profiling(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "gpufi:", err)
		return 1
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fatal(err)
	}
	defer stopProf()

	if *list {
		for _, a := range kernels.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, strings.Join(a.Kernels, " "))
		}
		return 0
	}

	target := *margin
	if *adaptiveOn && target == 0 {
		target = campaign.WorstCaseMargin99(3000) // the paper's ±2.35%
	}

	s := gpurel.NewStudy(*n, *seed)
	s.Workers = *workers
	s.Counters = &adaptive.Counters{}
	if target > 0 {
		s.Sampling = &gpurel.SamplingPolicy{Margin: target}
	}
	spec := gpurel.PointSpec{Layer: gpurel.LayerMicro, App: *appName, Kernel: *kernel, Hardened: *tmr}
	g, _, err := s.Golden(spec)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "golden run: %d cycles, %d launches\n", g.Res.Cycles, len(g.Res.Spans))

	var structures []gpu.Structure
	switch *structure {
	case "all":
		structures = gpu.Structures[:]
	case "ctrl":
		structures = gpu.ControlStructures[:]
	default:
		st, err := gpu.ParseStructure(*structure)
		if err != nil {
			return fatal(fmt.Errorf("%w, all or ctrl", err))
		}
		structures = []gpu.Structure{st}
	}

	fspec := faultmodel.Spec{Model: *model, Width: *burst, Lines: *lines}
	if *stuck >= 0 {
		fspec.Stuck = faultmodel.Ptr(*stuck)
	}
	// A structure selection is either all-storage or all-control, so the
	// control model can be implied once rather than spelled out per flag.
	if fspec.Model == "" && structures[0].IsControl() {
		fspec.Model = faultmodel.ModelControl
	}

	faultNote := ""
	if !fspec.IsDefault() {
		faultNote = ", fault=" + fspec.Label()
	}
	tbl := report.Table{
		Title:  fmt.Sprintf("gpuFI campaign: %s %s (n=%d, seed=%d, tmr=%v%s)", *appName, *kernel, *n, *seed, *tmr, faultNote),
		Header: []string{"Structure", "n", "Masked", "SDC", "Timeout", "DUE", "FR", "±99%", "DF", "AVF"},
	}
	prunable := false // some target's dead draws classify without simulation
	var structAVFs []metrics.StructAVF
	for _, st := range structures {
		if err := fspec.ValidateFor(st); err != nil {
			return fatal(err)
		}
		mdl, err := fspec.Build()
		if err != nil {
			return fatal(err)
		}
		tgt := microfi.Target{Structure: st, Kernel: *kernel, IncludeVote: *tmr, Model: mdl}
		prunable = prunable || tgt.Prunable()
		spec.Structure, spec.Fault = st, &fspec
		tl, err := s.RunAt(spec, *seed)
		if err != nil {
			return fatal(err)
		}
		df := tgt.DF(g)
		sa := metrics.NewStructAVF(st, tl, df)
		structAVFs = append(structAVFs, sa)
		lo, hi := tl.CI99()
		tbl.AddRow(st.String(), fmt.Sprintf("%d", tl.N),
			report.Pct(tl.Pct(faults.Masked)), report.Pct(tl.Pct(faults.SDC)),
			report.Pct(tl.Pct(faults.Timeout)), report.Pct(tl.Pct(faults.DUE)),
			report.Pct(tl.FR()), report.CI(lo, hi),
			fmt.Sprintf("%.4f", df), report.Pct(sa.AVF.Total()))
	}
	if len(structAVFs) == int(gpu.NumStructures) {
		chip := metrics.ChipAVF(s.Cfg, structAVFs)
		tbl.AddFooter("full-chip AVF (size-weighted): %s  [SDC %s, Timeout %s, DUE %s]",
			report.Pct(chip.Total()), report.Pct(chip.SDC), report.Pct(chip.Timeout), report.Pct(chip.DUE))
	}
	if target > 0 || prunable {
		c := s.Counters
		tbl.AddFooter("adaptive sampling: %d simulated, %d pruned (liveness), %d saved (early stop, target ±%.2f%%)",
			c.Simulated.Load(), c.Pruned.Load(), c.Saved.Load(), 100*target)
	}
	ck := g.CheckpointCounts()
	tbl.AddFooter("checkpointing: %d snapshots (%.1f MiB, %d evicted), %d fork resumes (%d cycles skipped), %d converge joins (%d cycles skipped)",
		ck.Snapshots, float64(ck.SnapshotBytes)/(1<<20), ck.Evictions,
		ck.ForkResumes, ck.ForkCyclesSaved, ck.ConvergeHits, ck.ConvergeCyclesSaved)
	fmt.Fprint(stdout, tbl.String())
	return 0
}
