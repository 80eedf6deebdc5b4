package fleet

import (
	"time"

	"gpurel/internal/service"
)

// The worker registry: every worker the coordinator has ever heard from —
// explicitly via POST /v1/workers or implicitly through lease traffic
// (legacy anonymous workers) — owns a workerEntry. Health is never stored;
// it is derived from heartbeat history and open leases at read time, so a
// worker that silently dies decays available→degraded without any event
// firing.

// workerEntry is the registry record of one worker (c.mu held for all
// access).
type workerEntry struct {
	spec       service.WorkerSpec
	registered bool // announced itself via POST /v1/workers
	draining   bool // announced shutdown; no further leases until re-register

	registeredAt time.Time // first sighting
	lastSeen     time.Time // any lease/report/heartbeat/registration traffic
	lastExpiry   time.Time // most recent lease expiry attributed to it

	runsDone int64 // runs accepted from its reports
	expired  int64 // its leases that hit the deadline
}

// touchWorkerLocked returns the entry for name, creating an anonymous
// (lease-traffic-only) record on first sight, and stamps lastSeen.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerEntry {
	if name == "" {
		name = "anonymous"
	}
	e := c.workers[name]
	if e == nil {
		e = &workerEntry{spec: service.WorkerSpec{Name: name}, registeredAt: now}
		c.workers[name] = e
	}
	e.lastSeen = now
	return e
}

// healthLocked derives a worker's health state at time now.
func (c *Coordinator) healthLocked(e *workerEntry, now time.Time) service.WorkerHealth {
	if e.draining {
		return service.HealthDraining
	}
	deg := c.cfg.DegradedAfter
	if now.Sub(e.lastSeen) > deg {
		return service.HealthDegraded
	}
	if !e.lastExpiry.IsZero() && now.Sub(e.lastExpiry) <= deg {
		return service.HealthDegraded
	}
	open, _ := c.openLeasesLocked(e.spec.Name)
	if open > 0 {
		return service.HealthBusy
	}
	return service.HealthAvailable
}

// openLeasesLocked counts a worker's outstanding leases and their unreported
// runs.
func (c *Coordinator) openLeasesLocked(worker string) (open, runs int) {
	for _, l := range c.leases {
		if l.worker == worker {
			open++
			runs += l.to - l.from
		}
	}
	return open, runs
}

// leaseSizeLocked is the capability-scored adaptive grant size for a worker:
// enough runs to keep it busy for TargetLeaseSec at its measured throughput,
// clamped to [MinLeaseRuns, LeaseRuns]. Workers that never reported a
// throughput get the fixed default — the pre-registry behavior.
func (c *Coordinator) leaseSizeLocked(e *workerEntry) int {
	rps := 0.0
	if e != nil {
		rps = e.spec.Caps.RunsPerSec
	}
	if rps <= 0 {
		return c.cfg.LeaseRuns
	}
	n := int(rps * c.cfg.TargetLeaseSec)
	if n < c.cfg.MinLeaseRuns {
		n = c.cfg.MinLeaseRuns
	}
	if n > c.cfg.LeaseRuns {
		n = c.cfg.LeaseRuns
	}
	return n
}

// supportsModel reports whether a worker's declared fault models cover
// the job's model (an empty declaration means all models).
func supportsModel(e *workerEntry, model string) bool {
	if e == nil || len(e.spec.Caps.FaultModels) == 0 {
		return true
	}
	for _, m := range e.spec.Caps.FaultModels {
		if m == model {
			return true
		}
	}
	return false
}

// workerStatusLocked builds the public view of one registry entry.
func (c *Coordinator) workerStatusLocked(e *workerEntry, now time.Time) service.WorkerStatus {
	open, runs := c.openLeasesLocked(e.spec.Name)
	st := service.WorkerStatus{
		Name:          e.spec.Name,
		Caps:          e.spec.Caps,
		Health:        c.healthLocked(e, now),
		Registered:    e.registered,
		OpenLeases:    open,
		LeasedRuns:    runs,
		LeaseSize:     c.leaseSizeLocked(e),
		RunsDone:      e.runsDone,
		ExpiredLeases: e.expired,
	}
	if !e.registeredAt.IsZero() {
		st.RegisteredUnix = e.registeredAt.Unix()
	}
	if !e.lastSeen.IsZero() {
		st.LastSeenUnix = e.lastSeen.Unix()
	}
	return st
}

// workerStatusesLocked lists every registry entry, sorted by name.
func (c *Coordinator) workerStatusesLocked(now time.Time) []service.WorkerStatus {
	out := make([]service.WorkerStatus, 0, len(c.workers))
	for _, e := range c.workers { //relint:allow map-order: sorted immediately below
		out = append(out, c.workerStatusLocked(e, now))
	}
	service.SortWorkers(out)
	return out
}
