// Command bench is the repository's benchmark: six campaign workloads that
// report absolute end-to-end numbers (tracing off) or per-layer numbers
// (tracing on), each run gated on the correctness of what it computed.
//
//	go run -C bench . -workload avf_forkjoin -seed 1 -seconds 10 -trace 0
//	go run -C bench . -workload all -repeat 5 -out results/mine
//	go run -C bench . -compare results/seed-a results/mine
//
// See README.md for the glossary and BENCHMARK.json for the declared
// workloads, metrics and bounds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload name, or all to run a full set by re-executing this program once per run")
		seed    = flag.Int64("seed", defaultSeed, "study base seed; points derive theirs through gpurel.PointSeed")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed region")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		out     = flag.String("out", "", "result file to write (a directory with -workload all)")
		repeat  = flag.Int("repeat", 5, "untraced runs per workload with -workload all")
		compare = flag.Bool("compare", false, "compare two result files or directories given as arguments")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files or directories"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "all":
		if *out == "" {
			fatal(errors.New("-workload all needs -out <directory>"))
		}
		if err := runAll(*out, *seed, *seconds, *repeat); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		tmp, err := os.MkdirTemp(scratchRoot(), "run-")
		if err != nil {
			fatal(err)
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, trace: *trace != 0, setups: 3, tmp: tmp, start: start}
		if cfg.trace {
			cfg.setups = 1
		}
		res, err := run(w, cfg)
		os.RemoveAll(tmp)
		os.Remove(scratchRoot()) //nolint:errcheck — only succeeds once no other run is using it
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeSet(*out, resultSet{Machine: machine(), Runs: []runResult{*res}}); err != nil {
				fatal(err)
			}
		}
		if err := res.print(); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func run(w *workload, cfg runConfig) (*runResult, error) {
	if w.daemon {
		return runDaemon(w, cfg)
	}
	return runInproc(w, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scratchRoot is where journals and other run files go: .bench_tmp at the
// checkout root (the working directory is bench/), which .gitignore names,
// never outside the checkout.
func scratchRoot() string {
	dir := filepath.Join("..", ".bench_tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// runAll runs a full set: every workload repeat times untraced and once
// traced, each in a process of its own so peak_rss_mb is per run, and
// writes one result file per workload into dir.
func runAll(dir string, seed int64, seconds float64, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads() {
		set := resultSet{Machine: machine()}
		for i := 0; i <= repeat; i++ {
			traced := i == repeat
			part := filepath.Join(dir, fmt.Sprintf(".%s.%d.json", w.name, i))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(traced)), "-out", part)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			one, err := readSet(part)
			os.Remove(part)
			if err != nil {
				return err
			}
			r := one.Runs[0]
			r.SpansHead = nil // raw spans stay out of committed sets
			set.Runs = append(set.Runs, r)
			fmt.Printf("%s run %d/%d trace=%v correct=%v\n", w.name, i+1, repeat+1, traced, r.Correct)
		}
		if err := writeSet(filepath.Join(dir, w.name+".json"), set); err != nil {
			return err
		}
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
