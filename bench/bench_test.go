package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step: same names, units, directions, bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", bf.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
	}
	diff := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			f, c := file[i], code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better || f.Bound != c.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, f, c)
			}
		}
	}
	diff("end_to_end", bf.EndToEnd, endToEnd)
	diff("per_layer", bf.PerLayer, perLayer)
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsAtSmallScale runs every workload at about 1/50 scale and
// checks that it completes, passes its correctness gate and emits exactly
// the declared metric names. The traced pass is skipped with -short.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			if trace && (testing.Short() || (w.name != "avf_dense" && w.name != "svf_soft" && w.name != "daemon_fleet")) {
				// The traced pass differs between workloads only in which
				// spans it records: one snapshot workload, the soft one and
				// the daemon cover every kind.
				continue
			}
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 7, seconds: 0.05, scale: 0.02, trace: trace, setups: 1, tmp: t.TempDir(), start: time.Now()}
				res, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
				}
				want := metricNames(endToEnd)
				if trace {
					want = metricNames(perLayer)
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metric names\n got %v\nwant %v", got, want)
				}
				if !trace {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", n, m.Value)
						}
					}
				}
				if res.TallyDigest == "" || res.SimStatsDigest == "" {
					t.Errorf("missing digests: %q %q", res.TallyDigest, res.SimStatsDigest)
				}
			})
		}
	}
}

// TestCompareFlagsExactCountsAndRegressions drives -compare on synthetic
// result sets.
func TestCompareFlagsExactCountsAndRegressions(t *testing.T) {
	mk := func(rate float64, cycles float64, digest string) resultSet {
		var set resultSet
		for i := 0; i < 5; i++ {
			r := runResult{Workload: "avf_brute", Seed: 1, Scale: 1, Correct: true, Attempted: 10,
				Metrics:     map[string]metric{"runs_per_s": {Value: rate * (1 + 0.001*float64(i)), Unit: "1/s"}},
				Exact:       map[string]float64{"microfi.sim_cycles_per_run": cycles},
				TallyDigest: digest, SimStatsDigest: "s"}
			set.Runs = append(set.Runs, r)
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set resultSet) string {
		path := dir + "/" + name + ".json"
		if err := writeSet(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", mk(100, 5000, "d"))
	for _, tc := range []struct {
		name string
		set  resultSet
		ok   bool
		want string
	}{
		{"same", mk(99, 5000, "d"), true, "ok"},
		{"slower", mk(80, 5000, "d"), false, "regressed"},
		{"moved-count", mk(100, 5001, "d"), false, "exact count microfi.sim_cycles_per_run differs"},
		{"moved-digest", mk(100, 5000, "e"), false, "tally_digest differs"},
	} {
		var out strings.Builder
		ok, err := compareSets(&out, base, write(tc.name, tc.set))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", tc.name, ok, tc.ok, tc.want, out.String())
		}
	}
}
