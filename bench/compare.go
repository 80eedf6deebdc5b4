package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the benchmark contract measures spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// loadSets reads one result file, or every *.json of a directory, keyed by
// workload.
func loadSets(path string) (map[string]resultSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]resultSet{}
	for _, f := range files {
		set, err := readSet(f)
		if err != nil {
			return nil, err
		}
		if len(set.Runs) == 0 {
			return nil, fmt.Errorf("%s: no runs", f)
		}
		out[set.Runs[0].Workload] = set
	}
	return out, nil
}

// values collects one end-to-end metric over a set's untraced runs.
func values(set resultSet, name string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets prints one row per workload and end-to-end metric with both
// medians and quartiles and a verdict, then every exact count or digest that
// differs. It reports false if anything regressed, any exact count moved or
// any run failed its correctness gate.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSets(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSets(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "base A = %s\nnew  B = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-19s %-6s %12s %25s %12s %25s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound", "verdict")
	for _, wl := range workloads() {
		sa, inA := a[wl.name]
		sb, inB := b[wl.name]
		if !inA || !inB {
			continue
		}
		for _, def := range endToEnd {
			va, vb := values(sa, def.Name), values(sb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := max((a3-a1)/am, (b3-b1)/bm); {
			case spread > def.Bound && !allBetter(va, vb, def.Better):
				verdict = "unresolved (spread wider than the bound)"
			case worse > def.Bound:
				verdict = "regressed"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-19s %-6s %12.4f %25s %12.4f %25s %9.4f %6.0f%%  %s\n",
				wl.name, def.Name, def.Unit, am, fmt.Sprintf("[%.4f, %.4f] n=%d", a1, a3, len(va)),
				bm, fmt.Sprintf("[%.4f, %.4f] n=%d", b1, b3, len(vb)), bm/am, 100*def.Bound, verdict)
		}
		for _, msg := range exactDiffs(sa, sb) {
			fmt.Fprintf(w, "%-15s ERROR %s\n", wl.name, msg)
			ok = false
		}
	}
	fmt.Fprintln(w, "B/A is the ratio of medians; its base is the A median in the same row.")
	return ok, nil
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(va, vb []float64, better string) bool {
	for _, x := range va {
		for _, y := range vb {
			if (better == "higher" && y <= x) || (better == "lower" && y >= x) {
				return false
			}
		}
	}
	return true
}

// exactDiffs lists failed runs and, among runs of the same seed and scale,
// every exact count or digest that is not identical.
func exactDiffs(a, b resultSet) []string {
	var out []string
	seen := map[string]bool{}
	note := func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); !seen[msg] {
			seen[msg] = true
			out = append(out, msg)
		}
	}
	type key struct {
		seed  int64
		scale float64
	}
	ref := map[key]*runResult{}
	for _, set := range []resultSet{a, b} {
		for i := range set.Runs {
			r := &set.Runs[i]
			if r.Failed > 0 || !r.Correct {
				note("run failed its correctness gate: %d of %d ops: %v", r.Failed, r.Attempted, r.Failures)
			}
			k := key{r.Seed, r.Scale}
			first := ref[k]
			if first == nil {
				ref[k] = r
				continue
			}
			if r.TallyDigest != first.TallyDigest {
				note("tally_digest differs at seed %d: %s vs %s", r.Seed, first.TallyDigest, r.TallyDigest)
			}
			if r.SimStatsDigest != first.SimStatsDigest {
				note("sim_stats_digest differs at seed %d: %s vs %s", r.Seed, first.SimStatsDigest, r.SimStatsDigest)
			}
			for _, name := range sortedKeys(r.Exact) {
				if v, ok := first.Exact[name]; ok && v != r.Exact[name] {
					note("exact count %s differs at seed %d: %v vs %v", name, r.Seed, v, r.Exact[name])
				}
			}
		}
	}
	return out
}
