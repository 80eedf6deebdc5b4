// Command nvbitfi runs a software-level fault-injection campaign on one
// benchmark — the NVBitFI workflow: inject n single-bit flips into the
// destination registers of uniformly chosen dynamic instructions and report
// the outcome distribution and SVF. Variants restrict injection to load
// instructions (SVF-LD) or flip a single operand use (the §V-B ablation).
// It is a flag front end over gpurel.Study: the campaign is a study point
// run at the -seed given (Study.RunAt).
//
// Usage:
//
//	nvbitfi -app HotSpot -kernel K1 -n 3000 [-mode svf|svf-ld|svf-use] [-tmr]
//	nvbitfi -app HotSpot -n 3000 -adaptive    # stop early at the ±2.35% target
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
	"gpurel/internal/faults"
	"gpurel/internal/kernels"
	"gpurel/internal/report"
	"gpurel/internal/softfi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state made explicit: the campaign for args,
// the report on stdout, diagnostics on stderr, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvbitfi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName = fs.String("app", "VA", "benchmark application (see -list)")
		kernel  = fs.String("kernel", "", "kernel name (K1..Kn); empty = whole application")
		mode    = fs.String("mode", "svf", "svf, svf-ld or svf-use")
		n       = fs.Int("n", 3000, "injections per campaign")
		seed    = fs.Int64("seed", 1, "campaign seed")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		tmr     = fs.Bool("tmr", false, "harden the application with thread-level TMR first")
		adapt   = fs.Bool("adaptive", false, "stop the campaign early once the Wilson-score 99% CI half-width reaches the target margin")
		margin  = fs.Float64("margin", 0, "target 99% CI half-width for -adaptive (0 = the paper's ±2.35%); implies -adaptive")
		list    = fs.Bool("list", false, "list benchmarks and kernels")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "nvbitfi:", err)
		return 1
	}

	if *list {
		for _, a := range kernels.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, strings.Join(a.Kernels, " "))
		}
		return 0
	}

	var m softfi.Mode
	switch *mode {
	case "svf":
		m = softfi.SVF
	case "svf-ld":
		m = softfi.SVFLD
	case "svf-use":
		m = softfi.SVFUse
	default:
		fmt.Fprintf(stderr, "nvbitfi: unknown mode %q (want svf, svf-ld or svf-use)\n", *mode)
		return 2
	}

	target := *margin
	if *adapt && target == 0 {
		target = campaign.WorstCaseMargin99(3000) // the paper's ±2.35%
	}
	s := gpurel.NewStudy(*n, *seed)
	s.Workers = *workers
	s.Counters = &adaptive.Counters{}
	if target > 0 {
		s.Sampling = &gpurel.SamplingPolicy{Margin: target}
	}
	spec := gpurel.PointSpec{Layer: gpurel.LayerSoft, App: *appName, Kernel: *kernel, Mode: m, Hardened: *tmr}
	_, g, err := s.Golden(spec)
	if err != nil {
		return fatal(err)
	}
	tgt := softfi.Target{Kernel: *kernel, Mode: m, IncludeVote: *tmr}
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, %d injection candidates\n",
		g.Res.DynInstrs, tgt.Candidates(g))

	tl, err := s.RunAt(spec, *seed)
	if err != nil {
		return fatal(err)
	}

	tbl := report.Table{
		Title:  fmt.Sprintf("NVBitFI campaign: %s %s, mode %s (n=%d, seed=%d, tmr=%v)", *appName, *kernel, m, *n, *seed, *tmr),
		Header: []string{"n", "Masked", "SDC", "Timeout", "DUE", m.String(), "±99%"},
	}
	lo, hi := tl.CI99()
	tbl.AddRow(fmt.Sprintf("%d", tl.N),
		report.Pct(tl.Pct(faults.Masked)), report.Pct(tl.Pct(faults.SDC)),
		report.Pct(tl.Pct(faults.Timeout)), report.Pct(tl.Pct(faults.DUE)),
		report.Pct(tl.FR()), report.CI(lo, hi))
	if target > 0 {
		tbl.AddFooter("adaptive sampling: %d runs saved (early stop, target ±%.2f%%)", s.Counters.Saved.Load(), 100*target)
	}
	ck := g.CheckpointCounts()
	tbl.AddFooter("checkpointing: %d boundaries (%.1f KiB of deltas), %d fork resumes (%d thread-instructions skipped), %d joins (%d thread-instructions skipped), %d steps skipped (%d thread-instructions)",
		ck.Boundaries, float64(ck.DeltaBytes)/(1<<10),
		ck.Forks, ck.ForkInstrsSkipped, ck.Joins, ck.JoinInstrsSkipped, ck.Skips, ck.SkipInstrsSkipped)
	fmt.Fprint(stdout, tbl.String())
	return 0
}
