package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one process run of one workload reports.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    float64 `json:"scale"`
	Trace    bool    `json:"trace"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Metrics are the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run). Samples is the sample count behind each timing.
	Metrics map[string]metric `json:"metrics"`
	Samples map[string]int    `json:"samples,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond it,
	// per timing distribution, e.g. "job_ms": {"p99": 12.3}.
	Tail map[string]map[string]float64 `json:"tail,omitempty"`

	// Exact are simulated statistics and counts that must repeat
	// bit-for-bit at the same seed, on any commit.
	Exact          map[string]float64 `json:"exact"`
	TallyDigest    string             `json:"tally_digest"`
	SimStatsDigest string             `json:"sim_stats_digest"`

	// Traced run only.
	Spans     []nameStat         `json:"spans,omitempty"`
	SpansHead []span             `json:"spans_head,omitempty"`
	LayerMs   map[string]float64 `json:"layer_self_ms,omitempty"`
}

func newResult(w *workload, cfg runConfig) *runResult {
	return &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Exact: map[string]float64{}, Tail: map[string]map[string]float64{}}
}

// setEndToEnd reports the end-to-end metrics of an untraced run. setupS are
// the repeated set-up times (the median is reported, after the process
// preamble); jobMs and firstMs the job and first-tally latencies.
func (r *runResult) setEndToEnd(rate float64, rateSamples int, preamble float64, setupS []float64, liveMB float64, jobMs, firstMs []float64) {
	r.set("runs_per_s", rate)
	r.Samples["runs_per_s"] = rateSamples
	r.set("setup_s", preamble+median(setupS))
	r.Samples["setup_s"] = len(setupS)
	r.set("heap_live_mb", liveMB)
	r.set("job_ms_p50", median(jobMs))
	r.set("job_ms_p90", quantile(jobMs, 0.9))
	r.set("first_tally_ms_p50", median(firstMs))
	r.Samples["job_ms_p50"] = len(jobMs)
	q, label := tailPercentile(len(jobMs))
	r.Tail["job_ms"] = map[string]float64{label: quantile(jobMs, q)}
}

func (r *runResult) set(name string, v float64) {
	def := findMetric(endToEnd, name)
	if def == nil {
		def = findMetric(perLayer, name)
	}
	if def == nil {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metric{Value: v, Unit: def.Unit}
	if def.exact {
		r.Exact[name] = v
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// machineInfo is recorded with every result set.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

func machine() machineInfo {
	m := machineInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// resultSet is the on-disk format: the runs of one workload from one
// commit, with the machine they ran on. -compare reads two of these.
type resultSet struct {
	Machine machineInfo `json:"machine"`
	Runs    []runResult `json:"runs"`
}

func writeSet(path string, set resultSet) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// heapLiveMB is the Go heap still reachable after a forced collection: what
// the workload retains (golden runs, snapshots, pools, resident jobs).
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's high-water resident set from VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver parses as the last line of standard output.
func (r *runResult) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-32s %14.4f %s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for dist, t := range r.Tail {
		for label, v := range t {
			fmt.Printf("  %-32s %14.4f  (highest percentile with >=10 samples beyond it)\n", dist+"_"+label, v)
		}
	}
	fmt.Printf("  tally_digest %s  sim_stats_digest %s\n", r.TallyDigest, r.SimStatsDigest)
	for _, f := range r.Failures {
		fmt.Println("  FAIL:", f)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
