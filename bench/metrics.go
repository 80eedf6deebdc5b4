package main

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go diffs the two.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median it may worsen by
	// exact marks a count that must repeat bit-for-bit across runs and
	// commits at the same seed; -compare flags any difference as an error.
	exact bool
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off and reported on every workload. On the in-process workloads a "job" is
// one point slice through campaign.RunRange (the unit a lease executes) and
// its "first tally" the first classified run of that slice; on daemon_fleet
// they are the HTTP job and its first progress event with N > 0.
var endToEnd = []metricDef{
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_tally_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced run. A metric
// is 0 on a workload whose timed region never enters the layer, which is
// itself the bypass prediction made checkable.
var perLayer = []metricDef{
	{Name: "kernels.build_ms", Unit: "ms", Better: "lower"},
	{Name: "harden.tmr_ms", Unit: "ms", Better: "lower"},
	{Name: "uop.compile_us_per_instr", Unit: "us", Better: "lower"},
	{Name: "sim.golden_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.golden_minstr_per_s", Unit: "M/s", Better: "higher"},
	{Name: "sim.golden_cycles", Unit: "count", Better: "lower", exact: true},
	{Name: "sim.golden_instrs", Unit: "count", Better: "lower", exact: true},
	{Name: "sim.ipc", Unit: "count", Better: "higher", exact: true},
	{Name: "mem.hit_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "mem.miss_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "mem.l1d_hit_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "mem.l1t_hit_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "mem.l2_hit_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "mem.dram_reads", Unit: "count", Better: "lower", exact: true},
	{Name: "mem.dram_writes", Unit: "count", Better: "lower", exact: true},
	{Name: "snapshot.capture_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.restore_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.join_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.count", Unit: "count", Better: "higher", exact: true},
	{Name: "snapshot.mb", Unit: "MB", Better: "lower", exact: true},
	{Name: "snapshot.evictions", Unit: "count", Better: "lower", exact: true},
	{Name: "microfi.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "microfi.run_us_p99", Unit: "us", Better: "lower"},
	{Name: "microfi.fork_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "microfi.join_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "microfi.converge_disabled", Unit: "count", Better: "lower", exact: true},
	{Name: "microfi.sim_cycles_per_run", Unit: "count", Better: "lower", exact: true},
	{Name: "funcsim.golden_minstr_per_s", Unit: "M/s", Better: "higher"},
	{Name: "softfi.golden_ms", Unit: "ms", Better: "lower"},
	{Name: "softfi.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "softfi.run_us_p99", Unit: "us", Better: "lower"},
	{Name: "flow.trace_static_ms", Unit: "ms", Better: "lower"},
	{Name: "ace.trace_rf_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.static_prune_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "ace.prune_rate", Unit: "%", Better: "higher", exact: true},
	{Name: "campaign.overhead_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "adaptive.stop_check_ns", Unit: "ns", Better: "lower"},
	{Name: "study.point_build_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_us", Unit: "us", Better: "lower"},
	{Name: "service.claim_us", Unit: "us", Better: "lower"},
	{Name: "service.report_us", Unit: "us", Better: "lower"},
	{Name: "service.flush_ms_10", Unit: "ms", Better: "lower"},
	{Name: "service.flush_ms_120", Unit: "ms", Better: "lower"},
	{Name: "service.journal_kb", Unit: "KB", Better: "lower"},
	{Name: "fleet.lease_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.lease_rtt_us_p90", Unit: "us", Better: "lower"},
	{Name: "fleet.report_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.leases", Unit: "count", Better: "lower"},
	{Name: "fleet.requeued", Unit: "count", Better: "lower"},
	{Name: "fleet.expired", Unit: "count", Better: "lower"},
	{Name: "fleet.worker_idle_share", Unit: "%", Better: "lower"},
	{Name: "http.status_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.status_us_p99", Unit: "us", Better: "lower"},
	{Name: "http.metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "http.events_open_us", Unit: "us", Better: "lower"},
	// Self-time share of the traced timed region, per layer (module name).
	// sim is the part of the injection closure that is neither restore nor
	// join, so microfi's own preflight and classify ride in it; softfi
	// likewise carries funcsim. bench is the harness itself: everything not
	// inside a named layer span.
	{Name: "self.sim_pct", Unit: "%", Better: "lower"},
	{Name: "self.snapshot_pct", Unit: "%", Better: "lower"},
	{Name: "self.softfi_pct", Unit: "%", Better: "lower"},
	{Name: "self.campaign_pct", Unit: "%", Better: "lower"},
	{Name: "self.service_pct", Unit: "%", Better: "lower"},
	{Name: "self.fleet_pct", Unit: "%", Better: "lower"},
	{Name: "self.http_pct", Unit: "%", Better: "lower"},
	{Name: "self.idle_pct", Unit: "%", Better: "lower"},
	{Name: "self.bench_pct", Unit: "%", Better: "lower"},
	// VmHWM after the traced timed region, before the workload-independent
	// probes. It did not repeat within a tenth
	// on the box this was sized on (GC timing decides how much garbage
	// coexists with the live heap), so it is here and not end-to-end;
	// heap_live_mb carries the bound.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace_attributed_pct", Unit: "%", Better: "higher"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 10

// defaultSeed is the seed bench/expected.json was recorded at.
const defaultSeed = 1

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
