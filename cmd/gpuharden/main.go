// Command gpuharden is the selective-hardening advisor CLI: given a
// benchmark and an SDC budget, it measures per-kernel vulnerability on the
// study stack, prices every protection subset with one fault-free golden
// run, picks the cheapest subset predicted to meet the budget, and verifies
// the plan with a real injection campaign on the selectively hardened job —
// refusing plans whose measured SDC misses the budget.
//
// Usage:
//
//	gpuharden -app SRADv1 -sdc-budget 0.005
//	gpuharden -app SRADv1 -sdc-budget 0.005 -n 3000 -seed 1 -json
//	gpuharden -app NW -sdc-budget 0.01 -journal nw.advise.json
//	                        # journaled through internal/journal: every
//	                        # completed unit of work is persisted; an
//	                        # interrupted run re-invoked with the same flags
//	                        # resumes and produces the bit-identical plan
//
// Exit status: 0 when a plan verifies within budget, 1 on refusal
// (unattainable budget or failed verification) or error, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"gpurel"
	"gpurel/internal/advisor"
	"gpurel/internal/journal"
	"gpurel/internal/kernels"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state made explicit: the plan for args on
// stdout, progress and diagnostics on stderr, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpuharden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName     = fs.String("app", "", "benchmark application (required; see -list)")
		budget      = fs.Float64("sdc-budget", 0.005, "SDC AVF ceiling the plan must verifiably meet")
		n           = fs.Int("n", 3000, "injections per campaign point (paper: 3000 → ±2.35% at 99% confidence)")
		seed        = fs.Int64("seed", 1, "base study seed (campaign points derive their own seeds)")
		jsonOut     = fs.Bool("json", false, "emit the final advisor state as JSON on stdout")
		journalPath = fs.String("journal", "", "journal path: state persists after every unit of work; re-running resumes from it")
		list        = fs.Bool("list", false, "list benchmarks and kernels")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range kernels.All() {
			fmt.Fprintf(stdout, "%-8s %d kernel(s)\n", a.Name, len(a.Kernels))
		}
		return 0
	}
	if *appName == "" {
		fmt.Fprintln(stderr, "gpuharden: -app is required (try -list)")
		return 2
	}
	if *budget < 0 || *budget >= 1 {
		fmt.Fprintf(stderr, "gpuharden: -sdc-budget must be an SDC AVF in [0, 1), got %g\n", *budget)
		return 2
	}

	var jf journalFile
	if *journalPath != "" {
		if err := journal.Load(*journalPath, advisor.StateVersion, &jf); err != nil {
			fmt.Fprintf(stderr, "gpuharden: %v\n", err)
			return 1
		}
	}
	if jf.State != nil {
		fmt.Fprintf(stderr, "gpuharden: resuming from %s (%d kernels measured, %d subsets priced)\n",
			*journalPath, len(jf.State.Measures), len(jf.State.Overheads))
	}
	save := func(st *advisor.State) {
		if *journalPath == "" {
			return
		}
		jf.State = st
		if err := journal.Save(*journalPath, advisor.StateVersion, time.Now().Unix(), &jf); err != nil {
			fmt.Fprintf(stderr, "gpuharden: %v\n", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	study := gpurel.NewStudy(*n, *seed)
	lastPhase := ""
	r := &advisor.Runner{
		Backend: &gpurel.StudyBackend{Study: study},
		App:     *appName,
		Budget:  *budget,
		Resume:  jf.State,
		OnState: func(st *advisor.State) {
			save(st)
			if st.Phase != lastPhase {
				fmt.Fprintf(stderr, "gpuharden: phase %s\n", st.Phase)
				lastPhase = st.Phase
			}
			if st.Phase == advisor.PhaseMeasure {
				fmt.Fprintf(stderr, "gpuharden:   %d measured, %d subsets priced\n", len(st.Measures), len(st.Overheads))
			}
		},
	}
	st, err := r.Run(ctx)
	if st != nil {
		save(st)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "gpuharden: interrupted; re-run with the same flags to resume")
		return 1
	}

	if *jsonOut {
		out, merr := json.MarshalIndent(st, "", "  ")
		if merr != nil {
			fmt.Fprintf(stderr, "gpuharden: %v\n", merr)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	} else if st != nil {
		printReport(stdout, st)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gpuharden: %v\n", err)
		return 1
	}
	return 0
}

// journalFile is the -journal payload: the advisor state under the journal
// envelope, whose version is the state's schema version.
type journalFile struct {
	journal.Header
	State *advisor.State `json:"state"`
}

// printReport renders the plan and verification as a human-readable table.
func printReport(w io.Writer, st *advisor.State) {
	fmt.Fprintf(w, "app %s, SDC budget %.5f\n", st.App, st.Budget)
	kernels := make([]string, 0, len(st.Measures))
	for k := range st.Measures { //relint:allow map-order: sorted immediately below
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s\n", "kernel", "weight", "SDC", "SDC(TMR)", "TMR mult")
	for _, k := range kernels {
		m := st.Measures[k]
		fmt.Fprintf(w, "%-6s %10.0f %10.5f %10.5f %10.4f\n", k, m.Weight, m.SDC, m.SDCHardened, m.HardMult)
	}
	if st.Plan == nil {
		fmt.Fprintln(w, "no plan (search did not complete)")
		return
	}
	p := st.Plan
	fmt.Fprintf(w, "\nplan: protect %v, cheapest of %d subsets\n", p.Protect, len(st.Overheads)+1)
	fmt.Fprintf(w, "predicted SDC %.5f, overhead %.4f (full TMR %.4f)\n", p.PredictedSDC, p.Overhead, p.FullOverhead)
	if v := st.Verification; v != nil {
		verdict := "PASS"
		if !v.Pass {
			verdict = "REFUSED"
		}
		fmt.Fprintf(w, "verified:  SDC %.5f, %d runs — %s\n", v.SDC, v.TotalRuns, verdict)
	}
}
