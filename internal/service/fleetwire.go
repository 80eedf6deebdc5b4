package service

import (
	"fmt"
	"sort"

	"gpurel/internal/faultmodel"
)

// Fleet wire types (v1): worker registration, health, and the fleet status
// document. They live here — not in internal/fleet — so the client package
// and the fleet package share one schema without an import cycle, exactly
// like the lease protocol types.
//
// Protocol summary (served by fleet.Coordinator, mounted on the /v1 mux):
//
//	POST   /v1/workers          WorkerSpec -> 200 WorkerStatus (register/update)
//	GET    /v1/workers          -> 200 []WorkerStatus
//	GET    /v1/workers/{name}   -> 200 WorkerStatus | 404
//	DELETE /v1/workers/{name}   mark draining -> 200 WorkerStatus | 404
//	GET    /v1/fleet            -> 200 FleetStatus
//	GET    /v1/fleet/events     NDJSON FleetStatus stream (snapshot per change)
//
// Every error response uses the unified envelope {"error":{"code","message"}}.

// WorkerCaps is a worker's capability report: what the coordinator needs to
// size leases for it. RunsPerSec is measured (the worker's live throughput
// as chunks complete, resent with each lease request), not configured.
type WorkerCaps struct {
	// RunsPerSec is the worker's measured campaign throughput. The
	// coordinator multiplies it by its lease horizon to size grants
	// (adaptive lease sizing); 0 means unknown and falls back to the
	// fixed default.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	// SnapMB is the machine-snapshot memory budget in MiB the worker's
	// golden runs are built under by default.
	SnapMB int `json:"snap_mb,omitempty"`
	// FaultModels lists the fault-model names this worker's binary supports
	// (transient, stuck, mbu, control). Empty = all models.
	FaultModels []string `json:"fault_models,omitempty"`
}

// WorkerSpec is the registration request. v1 wire form nests it under
// "worker":
//
//	{"worker":{"name":"w1","caps":{"runs_per_sec":42.5,"snap_mb":256,"fault_models":["transient"]}}}
type WorkerSpec struct {
	Name string     `json:"name"`
	Caps WorkerCaps `json:"caps"`
}

// workerSpecBody mirrors WorkerSpec without its methods, so the custom
// Marshal/Unmarshal cannot recurse.
type workerSpecBody WorkerSpec

// UnmarshalJSON decodes the v1 registration envelope, rejecting unknown
// fields.
func (sp *WorkerSpec) UnmarshalJSON(data []byte) error {
	return decodeEnvelope(data, "worker", (*workerSpecBody)(sp), true)
}

// MarshalJSON emits the v1 envelope.
func (sp WorkerSpec) MarshalJSON() ([]byte, error) {
	return encodeEnvelope("worker", workerSpecBody(sp))
}

// Validate rejects malformed registrations.
func (sp WorkerSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("worker.name is required")
	}
	if sp.Caps.RunsPerSec < 0 {
		return fmt.Errorf("worker.caps.runs_per_sec must be non-negative, got %g", sp.Caps.RunsPerSec)
	}
	if sp.Caps.SnapMB < 0 {
		return fmt.Errorf("worker.caps.snap_mb must be non-negative, got %d", sp.Caps.SnapMB)
	}
	known := map[string]bool{
		faultmodel.ModelTransient: true, faultmodel.ModelStuck: true,
		faultmodel.ModelMBU: true, faultmodel.ModelControl: true,
	}
	for _, m := range sp.Caps.FaultModels {
		if !known[m] {
			return fmt.Errorf("worker.caps.fault_models: unknown model %q (want transient|stuck|mbu|control)", m)
		}
	}
	return nil
}

// WorkerHealth is the registry's view of a worker's operational state,
// derived from its heartbeat history and open leases.
type WorkerHealth string

const (
	// HealthAvailable: heartbeat fresh, no lease outstanding.
	HealthAvailable WorkerHealth = "available"
	// HealthBusy: heartbeat fresh, at least one lease outstanding.
	HealthBusy WorkerHealth = "busy"
	// HealthDegraded: heartbeat stale past the degraded threshold, or a
	// lease of this worker expired recently — grants continue but the
	// fleet operator should look at it.
	HealthDegraded WorkerHealth = "degraded"
	// HealthDraining: the worker announced shutdown (DELETE /v1/workers/{name});
	// it receives no further leases until it re-registers.
	HealthDraining WorkerHealth = "draining"
)

// WorkerHealthStates enumerates the states in display order (for /metrics
// gauge rows, which must be exhaustive and deterministic).
var WorkerHealthStates = []WorkerHealth{HealthAvailable, HealthBusy, HealthDegraded, HealthDraining}

// WorkerStatus is the registry's public record of one worker.
type WorkerStatus struct {
	Name   string       `json:"name"`
	Caps   WorkerCaps   `json:"caps"`
	Health WorkerHealth `json:"health"`
	// Registered reports whether the worker announced itself via
	// POST /v1/workers (false = legacy anonymous worker observed through
	// its lease traffic only).
	Registered bool `json:"registered"`
	// OpenLeases / LeasedRuns describe the worker's outstanding grants.
	OpenLeases int `json:"open_leases"`
	LeasedRuns int `json:"leased_runs,omitempty"`
	// LeaseSize is the adaptive grant size the coordinator would hand this
	// worker right now (capability-scored; the fixed default when the
	// worker never reported a throughput).
	LeaseSize int `json:"lease_size"`
	// RunsDone counts runs accepted from this worker's reports.
	RunsDone int64 `json:"runs_done"`
	// ExpiredLeases counts this worker's leases that hit the heartbeat
	// deadline and were requeued.
	ExpiredLeases  int64 `json:"expired_leases,omitempty"`
	RegisteredUnix int64 `json:"registered_unix,omitempty"`
	LastSeenUnix   int64 `json:"last_seen_unix,omitempty"`
}

// TenantStatus is the scheduler's per-tenant work accounting, surfaced in
// FleetStatus and /metrics.
type TenantStatus struct {
	// Tenant is the tenant name; the empty spec field maps to "default".
	Tenant string `json:"tenant"`
	// Weight is the tenant's current fair-share weight: the highest
	// priority among its non-terminal jobs (default 1).
	Weight int `json:"weight"`
	// ActiveJobs counts non-terminal jobs; TotalJobs counts all.
	ActiveJobs int `json:"active_jobs"`
	TotalJobs  int `json:"total_jobs"`
	// PendingRuns / InFlightRuns / DoneRuns partition the tenant's runs.
	PendingRuns  int `json:"pending_runs"`
	InFlightRuns int `json:"in_flight_runs"`
	DoneRuns     int `json:"done_runs"`
}

// LeaseStats are the coordinator's lifetime lease counters (journaled, so
// they survive a coordinator restart).
type LeaseStats struct {
	// Granted counts leases handed out; Reported counts accepted report
	// sub-ranges; DupReports counts reports dropped as idempotent
	// duplicates (late arrivals for work an expired lease already re-ran).
	Granted    int64 `json:"granted"`
	Reported   int64 `json:"reported"`
	DupReports int64 `json:"dup_reports"`
	// Expired counts leases whose heartbeat deadline passed — each one
	// requeued its remainder exactly once. Returned counts leases handed
	// back whole or partial by draining workers.
	Expired  int64 `json:"expired"`
	Returned int64 `json:"returned"`
}

// FleetStatus is the control-plane summary served at GET /v1/fleet and
// streamed (one snapshot per state change) at GET /v1/fleet/events.
type FleetStatus struct {
	// Workers, sorted by name.
	Workers []WorkerStatus `json:"workers"`
	// Tenants, sorted by tenant name.
	Tenants []TenantStatus `json:"tenants"`
	// OpenLeases counts leases currently outstanding; Leases are the
	// lifetime counters.
	OpenLeases int        `json:"open_leases"`
	Leases     LeaseStats `json:"leases"`
	// Journaled reports whether the coordinator persists its lease ledger
	// (crash-recoverable control plane) or is in-memory only.
	Journaled bool `json:"journaled"`
}

// HealthCounts tallies workers per health state, with every state present.
func (f FleetStatus) HealthCounts() map[WorkerHealth]int {
	out := make(map[WorkerHealth]int, len(WorkerHealthStates))
	for _, h := range WorkerHealthStates {
		out[h] = 0
	}
	for _, w := range f.Workers {
		out[w.Health]++
	}
	return out
}

// SortWorkers orders a worker list by name (the canonical wire order).
func SortWorkers(ws []WorkerStatus) {
	sort.Slice(ws, func(i, k int) bool { return ws[i].Name < ws[k].Name })
}

// SortTenants orders a tenant list by name (the canonical wire order).
func SortTenants(ts []TenantStatus) {
	sort.Slice(ts, func(i, k int) bool { return ts[i].Tenant < ts[k].Tenant })
}
