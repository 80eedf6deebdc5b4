// Command gpuharden is the selective-hardening advisor CLI: given a
// benchmark and an SDC budget, it measures per-kernel vulnerability and
// protection cost on the study stack, greedily searches for the cheapest
// protection set predicted to meet the budget, and verifies the plan with a
// real injection campaign on the selectively hardened job — refusing plans
// whose measured SDC misses the budget.
//
// Usage:
//
//	gpuharden -app SRADv1 -sdc-budget 0.005
//	gpuharden -app SRADv1 -sdc-budget 0.005 -n 3000 -seed 1 -json
//	gpuharden -app NW -sdc-budget 0.01 -journal nw.advise.json
//	                        # journaled: every completed unit of work is
//	                        # persisted; an interrupted run re-invoked with
//	                        # the same flags resumes and produces the
//	                        # bit-identical plan
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

	"gpurel"
	"gpurel/internal/advisor"
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
		appName = fs.String("app", "", "benchmark application (required; see -list)")
		budget  = fs.Float64("sdc-budget", 0.005, "SDC AVF ceiling the plan must verifiably meet")
		n       = fs.Int("n", 3000, "injections per campaign point (paper: 3000 → ±2.35% at 99% confidence)")
		seed    = fs.Int64("seed", 1, "base study seed (campaign points derive their own seeds)")
		jsonOut = fs.Bool("json", false, "emit the final advisor state as JSON on stdout")
		journal = fs.String("journal", "", "journal path: state persists after every unit of work; re-running resumes from it")
		list    = fs.Bool("list", false, "list benchmarks and kernels")
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

	resume, err := loadJournal(*journal)
	if err != nil {
		fmt.Fprintf(stderr, "gpuharden: %v\n", err)
		return 1
	}
	if resume != nil {
		fmt.Fprintf(stderr, "gpuharden: resuming from %s (%d kernels measured, %d priced)\n",
			*journal, len(resume.Measures), len(resume.Costs))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	study := gpurel.NewStudy(*n, *seed)
	lastPhase := ""
	r := &advisor.Runner{
		Backend: &gpurel.StudyBackend{Study: study},
		App:     *appName,
		Budget:  *budget,
		Resume:  resume,
		OnState: func(st *advisor.State) {
			if *journal != "" {
				if err := saveJournal(*journal, st); err != nil {
					fmt.Fprintf(stderr, "gpuharden: journal: %v\n", err)
				}
			}
			if st.Phase != lastPhase {
				fmt.Fprintf(stderr, "gpuharden: phase %s\n", st.Phase)
				lastPhase = st.Phase
			}
			if st.Phase == advisor.PhaseMeasure {
				fmt.Fprintf(stderr, "gpuharden:   %d measured, %d priced\n", len(st.Measures), len(st.Costs))
			}
		},
	}
	st, err := r.Run(ctx)
	if *journal != "" && st != nil {
		if jerr := saveJournal(*journal, st); jerr != nil {
			fmt.Fprintf(stderr, "gpuharden: journal: %v\n", jerr)
		}
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

// printReport renders the plan and verification as a human-readable table.
func printReport(w io.Writer, st *advisor.State) {
	fmt.Fprintf(w, "app %s, SDC budget %.5f\n", st.App, st.Budget)
	kernels := make([]string, 0, len(st.Measures))
	for k := range st.Measures { //relint:allow map-order: sorted immediately below
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %8s\n", "kernel", "weight", "SDC", "SDC(TMR)", "cost", "hint")
	for _, k := range kernels {
		m := st.Measures[k]
		fmt.Fprintf(w, "%-6s %10.0f %10.5f %10.5f %10.4f %8.2f\n",
			k, m.Weight, m.SDC, m.SDCHardened, st.Costs[k], m.Hint)
	}
	if st.Plan == nil {
		fmt.Fprintln(w, "no plan (search did not complete)")
		return
	}
	p := st.Plan
	fmt.Fprintf(w, "\nplan: protect %v\n", p.Protect)
	for _, s := range p.Steps {
		fmt.Fprintf(w, "  +%-5s predicted SDC %.5f, overhead %.4f (gain %.5f / cost %.4f)\n",
			s.Add, s.PredictedSDC, s.PredictedOverhead, s.Gain, s.Cost)
	}
	fmt.Fprintf(w, "predicted: SDC %.5f, overhead %.4f (full TMR %.4f)\n",
		p.PredictedSDC, p.PredictedOverhead, p.FullOverhead)
	if v := st.Verification; v != nil {
		verdict := "PASS"
		if !v.Pass {
			verdict = "REFUSED"
		}
		fmt.Fprintf(w, "verified:  SDC %.5f, overhead %.4f (full TMR %.4f), %d runs — %s\n",
			v.SDC, v.Overhead, v.FullOverhead, v.TotalRuns, verdict)
	}
}

// loadJournal reads a journaled advisor state; a missing file means a fresh
// run.
func loadJournal(path string) (*advisor.State, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st advisor.State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if st.Version != advisor.StateVersion {
		return nil, fmt.Errorf("journal %s: version %d, want %d", path, st.Version, advisor.StateVersion)
	}
	return &st, nil
}

// saveJournal persists the state atomically (temp + rename).
func saveJournal(path string, st *advisor.State) error {
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
