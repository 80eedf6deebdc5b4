// Package fleet turns a single-node gpureld daemon into a coordinator +
// worker fleet. The coordinator packages the scheduler's work ledger into
// HTTP leases — run-ranges with heartbeat deadlines — that workers pull,
// execute through the same deterministic campaign path, and report back
// chunk by chunk. Because run i always draws from rand.NewSource(Seed+i)
// and the scheduler's merge is idempotent by run-range, any interleaving of
// local lanes, live workers, re-runs of expired leases — and, with the
// journal enabled, a coordinator crash and restart mid-campaign — tallies
// bit-identically to one uninterrupted single-node campaign.
//
// Beyond leases the coordinator is the fleet control plane: a worker
// registry with capability reports and derived health states
// (available/busy/degraded/draining), capability-scored adaptive lease
// sizing, and the GET /v1/fleet status surface.
package fleet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/journal"
	"gpurel/internal/service"
)

// Backlog is the coordinator's view of the scheduler work ledger.
// *service.Scheduler implements it.
type Backlog interface {
	ClaimWork(max int) (service.WorkAssignment, bool)
	ReportWork(jobID string, from, to int, tl campaign.Tally) (service.JobStatus, bool, error)
	ReturnWork(jobID string, from, to int)
	// ReclaimWork re-pins a journaled lease's remainder as in-flight after a
	// coordinator restart; false means the job is gone or terminal and the
	// lease should be dropped.
	ReclaimWork(jobID string, from, to int) bool
	// Tenants is the scheduler's per-tenant accounting for GET /v1/fleet.
	Tenants() []service.TenantStatus
}

// CoordinatorConfig sizes the lease protocol and the control plane.
type CoordinatorConfig struct {
	// LeaseRuns caps the runs granted per lease (default 500). Adaptive
	// jobs are additionally clamped to batch boundaries by the ledger.
	LeaseRuns int
	// LeaseTTL is the heartbeat deadline: a lease with no report or
	// heartbeat for this long is expired and its remainder requeued
	// (default 15s).
	LeaseTTL time.Duration
	// Sweep is the expiry-scan cadence (default LeaseTTL/4).
	Sweep time.Duration
	// TargetLeaseSec is the adaptive lease horizon: a worker that reported
	// a measured throughput is granted about this many seconds of work per
	// lease (default 2s), clamped to [MinLeaseRuns, LeaseRuns]. Workers
	// with no capability report get the fixed LeaseRuns default.
	TargetLeaseSec float64
	// MinLeaseRuns floors adaptive grants (default 16) so a slow worker
	// still amortizes the HTTP round-trip.
	MinLeaseRuns int
	// DegradedAfter is the heartbeat staleness (and recent-expiry window)
	// past which a worker reads as degraded (default 2×LeaseTTL).
	DegradedAfter time.Duration
	// JournalPath, when set, makes the control plane crash-recoverable:
	// leases, registry, and counters persist there (internal/journal, like
	// the scheduler checkpoint) and are restored by the next NewCoordinator
	// with the same path.
	JournalPath string
	// FlushInterval is the journal flush cadence (default 2s).
	FlushInterval time.Duration
	// Now is the lease clock (default time.Now); tests inject a fake to
	// drive expiry deterministically.
	Now func() time.Time
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseRuns <= 0 {
		c.LeaseRuns = 500
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Sweep <= 0 {
		c.Sweep = c.LeaseTTL / 4
	}
	if c.TargetLeaseSec <= 0 {
		c.TargetLeaseSec = 2
	}
	if c.MinLeaseRuns <= 0 {
		c.MinLeaseRuns = 16
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 2 * c.LeaseTTL
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// lease is one outstanding grant. from advances as prefix reports land, so
// [from, to) is always the unexecuted (or unreported) remainder.
type lease struct {
	id       string
	jobID    string
	worker   string
	from, to int
	deadline time.Time
}

// Stats are the coordinator's lifetime lease counters (journaled, so they
// survive a restart when the journal is enabled).
type Stats = service.LeaseStats

// Coordinator tracks leases and the worker registry against a scheduler
// backlog and serves the /v1/leases, /v1/workers, and /v1/fleet endpoints.
type Coordinator struct {
	cfg     CoordinatorConfig
	backlog Backlog

	mu      sync.Mutex
	leases  map[string]*lease
	workers map[string]*workerEntry
	stats   Stats
	// changed wakes the /v1/fleet/events streams; one pending wake-up per
	// subscriber is enough, each renders a fresh snapshot.
	changed *service.Hub[struct{}]

	dirty  atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// NewCoordinator starts a coordinator (and its expiry sweeper) over a
// backlog, restoring the lease ledger and worker registry from the journal
// when CoordinatorConfig.JournalPath is set. Close it to stop the loops.
func NewCoordinator(b Backlog, cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		backlog: b,
		leases:  map[string]*lease{},
		workers: map[string]*workerEntry{},
		changed: service.NewHub[struct{}](1),
		done:    make(chan struct{}),
	}
	if c.cfg.JournalPath != "" {
		var jf journalFile
		if err := journal.Load(c.cfg.JournalPath, journalVersion, &jf); err != nil {
			return nil, err
		}
		c.restore(&jf, c.cfg.Now())
		// The coordinator's flush policy: on a ticker, while dirty.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			journal.FlushLoop(c.done, c.cfg.FlushInterval, &c.dirty, c.Flush)
		}()
	}
	c.wg.Add(1)
	go c.sweepLoop()
	return c, nil
}

// Close stops the loops and settles outstanding leases. Without a journal
// every open lease is requeued so a coordinator shutting down strands no
// work; with one, leases stay in the journal instead — their workers may
// outlive this process and resume reporting against the restarted
// coordinator.
func (c *Coordinator) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.done)
		c.wg.Wait()
		if c.cfg.JournalPath != "" {
			err = c.Flush()
			return
		}
		c.mu.Lock()
		// Requeue in sorted lease-ID order so the backlog sees a
		// deterministic return sequence.
		ids := make([]string, 0, len(c.leases))
		for id := range c.leases { //relint:allow map-order: sorted immediately below
			ids = append(ids, id)
		}
		sort.Strings(ids)
		ls := make([]*lease, 0, len(ids))
		for _, id := range ids {
			ls = append(ls, c.leases[id])
		}
		c.leases = map[string]*lease{}
		c.stats.Returned += int64(len(ls))
		c.mu.Unlock()
		for _, l := range ls {
			c.backlog.ReturnWork(l.jobID, l.from, l.to)
		}
	})
	return err
}

// Kill stops the loops without flushing the journal or requeueing leases —
// the crash path, separated from Close so restart tests exercise recovery
// from the last periodic flush exactly as a SIGKILL would leave it.
func (c *Coordinator) Kill() {
	c.closed.Do(func() {
		close(c.done)
		c.wg.Wait()
	})
}

// Stats returns the lifetime lease counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// sweepLoop expires leases whose heartbeat deadline passed. Deleting the
// lease before requeueing makes the requeue exactly-once: a second sweep —
// or a late report from the presumed-dead worker — finds no lease, and the
// ledger's idempotent merge absorbs any double execution.
func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Sweep)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Sweep runs one expiry scan now (the sweeper calls it periodically; tests
// call it directly against an injected clock).
func (c *Coordinator) Sweep() {
	now := c.cfg.Now()
	c.mu.Lock()
	// Expire in sorted lease-ID order so requeues hit the backlog in a
	// deterministic sequence.
	ids := make([]string, 0, len(c.leases))
	for id := range c.leases { //relint:allow map-order: sorted immediately below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var expired []*lease
	for _, id := range ids {
		if l := c.leases[id]; now.After(l.deadline) {
			delete(c.leases, id)
			expired = append(expired, l)
			if e := c.workers[l.worker]; e != nil {
				e.expired++
				e.lastExpiry = now
			}
		}
	}
	c.stats.Expired += int64(len(expired))
	if len(expired) > 0 {
		c.changed.Publish(struct{}{})
	}
	c.mu.Unlock()
	if len(expired) > 0 {
		c.dirty.Store(true)
	}
	for _, l := range expired {
		c.backlog.ReturnWork(l.jobID, l.from, l.to)
	}
}

// Mount registers the fleet endpoints on a v1 mux — passed to
// service.Server.Handler so the coordinator shares the daemon's listener.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/leases", c.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/report", c.handleReport)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/leases/{id}", c.handleReturn)
	mux.HandleFunc("POST /v1/workers", c.handleRegisterWorker)
	mux.HandleFunc("GET /v1/workers", c.handleListWorkers)
	mux.HandleFunc("GET /v1/workers/{name}", c.handleGetWorker)
	mux.HandleFunc("DELETE /v1/workers/{name}", c.handleDrainWorker)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("GET /v1/fleet/events", c.handleFleetEvents)
}

// jobModel resolves a job spec's fault-model name (the registry's
// capability vocabulary).
func jobModel(spec service.JobSpec) string {
	if spec.Fault == nil || spec.Fault.Model == "" {
		return faultmodel.ModelTransient
	}
	return spec.Fault.Model
}

// handleLease: POST /v1/leases — claim a run-range for the requesting
// worker; 204 when the backlog has nothing pending (or the worker is
// draining). The grant is capability-scored: workers that report a measured
// throughput get TargetLeaseSec's worth of runs instead of the fixed
// default.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req service.LeaseRequest
	if !service.DecodeBody(w, r, "lease request", &req) {
		return
	}
	if err := req.Validate(); err != nil {
		service.WriteError(w, http.StatusBadRequest, service.ErrCodeBadRequest, err.Error())
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	e := c.touchWorkerLocked(req.Worker, now)
	if req.RunsPerSec > 0 {
		e.spec.Caps.RunsPerSec = req.RunsPerSec
	}
	if e.draining {
		c.mu.Unlock()
		c.dirty.Store(true)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	max := c.leaseSizeLocked(e)
	c.mu.Unlock()
	c.dirty.Store(true)
	if req.MaxRuns > 0 && req.MaxRuns < max {
		max = req.MaxRuns
	}

	wa, ok := c.backlog.ClaimWork(max)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.mu.Lock()
	if !supportsModel(c.workers[e.spec.Name], jobModel(wa.Spec)) {
		// The worker's declared capability set excludes this job's fault
		// model: hand the claim straight back and let a capable worker (or a
		// local lane) take it.
		c.mu.Unlock()
		c.backlog.ReturnWork(wa.JobID, wa.From, wa.To)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	l := &lease{
		id:       service.NewID("l"),
		jobID:    wa.JobID,
		worker:   e.spec.Name,
		from:     wa.From,
		to:       wa.To,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	c.stats.Granted++
	c.changed.Publish(struct{}{})
	c.mu.Unlock()
	c.dirty.Store(true)
	service.WriteJSON(w, http.StatusOK, service.Lease{
		ID: l.id, JobID: wa.JobID, Spec: wa.Spec,
		From: wa.From, To: wa.To, TTLSec: c.cfg.LeaseTTL.Seconds(),
	})
}

// handleReport: POST /v1/leases/{id}/report — merge one completed
// sub-range (doubling as a heartbeat). 410 when the lease is unknown: it
// expired and its remainder was already requeued, so the worker abandons.
// 400 when the report is not a prefix of the lease's remainder: accepting
// one that starts past it would skip runs nobody executes. A final report
// that leaves runs unexecuted returns them to the ledger.
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var rep service.LeaseReport
	if !service.DecodeBody(w, r, "lease report", &rep) {
		return
	}
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	l, ok := c.leases[id]
	if !ok {
		c.mu.Unlock()
		service.WriteError(w, http.StatusGone, service.ErrCodeGone, "no such lease (expired and requeued?)")
		return
	}
	if rep.From != l.from || rep.To > l.to || rep.To <= rep.From {
		c.mu.Unlock()
		service.WriteError(w, http.StatusBadRequest, service.ErrCodeBadRequest,
			fmt.Sprintf("report [%d,%d) is not a prefix of the lease remainder [%d,%d)", rep.From, rep.To, l.from, l.to))
		return
	}
	jobID := l.jobID
	c.touchWorkerLocked(rep.Worker, now)
	c.mu.Unlock()

	st, merged, err := c.backlog.ReportWork(jobID, rep.From, rep.To, rep.Tally)
	if err != nil {
		service.WriteError(w, http.StatusGone, service.ErrCodeGone, err.Error())
		return
	}

	c.mu.Lock()
	if merged {
		c.stats.Reported++
		if e := c.workers[rep.Worker]; e != nil {
			e.runsDone += int64(rep.To - rep.From)
		}
	} else {
		c.stats.DupReports++
	}
	ack := service.LeaseAck{Accepted: merged, TTLSec: c.cfg.LeaseTTL.Seconds()}
	var rest *lease // the unexecuted remainder of a lease deleted early
	if l, ok := c.leases[id]; ok {
		if rep.To > l.from {
			l.from = rep.To
		}
		l.deadline = c.cfg.Now().Add(c.cfg.LeaseTTL)
		if rep.Done || l.from >= l.to || st.State.Terminal() {
			delete(c.leases, id)
			if l.from < l.to && !st.State.Terminal() {
				rest = l
				c.stats.Returned++
			}
		}
	}
	if st.State.Terminal() {
		// Canceled, failed, or adaptively early-stopped: the worker should
		// abandon whatever is left of the lease.
		ack.Canceled = true
	}
	c.changed.Publish(struct{}{})
	c.mu.Unlock()
	c.dirty.Store(true)
	if rest != nil {
		c.backlog.ReturnWork(rest.jobID, rest.from, rest.to)
	}
	service.WriteJSON(w, http.StatusOK, ack)
}

// handleHeartbeat: POST /v1/leases/{id}/heartbeat — extend the deadline.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	l, ok := c.leases[id]
	if ok {
		l.deadline = now.Add(c.cfg.LeaseTTL)
		c.touchWorkerLocked(l.worker, now)
	}
	c.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusGone, service.ErrCodeGone, "no such lease")
		return
	}
	c.dirty.Store(true)
	w.WriteHeader(http.StatusNoContent)
}

// handleReturn: DELETE /v1/leases/{id} — a draining worker hands back the
// unexecuted remainder.
func (c *Coordinator) handleReturn(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	l, ok := c.leases[id]
	if ok {
		delete(c.leases, id)
		c.stats.Returned++
		c.touchWorkerLocked(l.worker, now)
		c.changed.Publish(struct{}{})
	}
	c.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusGone, service.ErrCodeGone, "no such lease")
		return
	}
	c.dirty.Store(true)
	c.backlog.ReturnWork(l.jobID, l.from, l.to)
	w.WriteHeader(http.StatusNoContent)
}

// handleRegisterWorker: POST /v1/workers — announce a worker and its
// capability report. Re-registration updates the caps and clears draining,
// so a restarted worker process under the same name rejoins cleanly.
func (c *Coordinator) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var spec service.WorkerSpec
	if !service.DecodeBody(w, r, "worker spec", &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		service.WriteError(w, http.StatusBadRequest, service.ErrCodeBadRequest, err.Error())
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	e := c.touchWorkerLocked(spec.Name, now)
	e.registered = true
	e.draining = false
	if spec.Caps.RunsPerSec > 0 {
		e.spec.Caps.RunsPerSec = spec.Caps.RunsPerSec
	}
	e.spec.Caps.SnapMB = spec.Caps.SnapMB
	e.spec.Caps.FaultModels = append([]string(nil), spec.Caps.FaultModels...)
	st := c.workerStatusLocked(e, now)
	c.changed.Publish(struct{}{})
	c.mu.Unlock()
	c.dirty.Store(true)
	service.WriteJSON(w, http.StatusOK, st)
}

// handleListWorkers: GET /v1/workers — the registry, sorted by name.
func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	out := c.workerStatusesLocked(now)
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, out)
}

// handleGetWorker: GET /v1/workers/{name}.
func (c *Coordinator) handleGetWorker(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	now := c.cfg.Now()
	c.mu.Lock()
	e, ok := c.workers[name]
	var st service.WorkerStatus
	if ok {
		st = c.workerStatusLocked(e, now)
	}
	c.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, service.ErrCodeNotFound, "no such worker")
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
}

// handleDrainWorker: DELETE /v1/workers/{name} — mark a worker draining: it
// receives no further leases until it re-registers. Its open leases keep
// running (the worker returns them itself, or they expire).
func (c *Coordinator) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	now := c.cfg.Now()
	c.mu.Lock()
	e, ok := c.workers[name]
	var st service.WorkerStatus
	if ok {
		e.draining = true
		st = c.workerStatusLocked(e, now)
		c.changed.Publish(struct{}{})
	}
	c.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, service.ErrCodeNotFound, "no such worker")
		return
	}
	c.dirty.Store(true)
	service.WriteJSON(w, http.StatusOK, st)
}

// FleetStatus assembles the control-plane summary document.
func (c *Coordinator) FleetStatus() service.FleetStatus {
	tenants := c.backlog.Tenants()
	now := c.cfg.Now()
	c.mu.Lock()
	fs := service.FleetStatus{
		Workers:    c.workerStatusesLocked(now),
		Tenants:    tenants,
		OpenLeases: len(c.leases),
		Leases:     c.stats,
		Journaled:  c.cfg.JournalPath != "",
	}
	c.mu.Unlock()
	return fs
}

// handleFleet: GET /v1/fleet.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.FleetStatus())
}

// handleFleetEvents: GET /v1/fleet/events — NDJSON stream of FleetStatus
// snapshots: one line now, then one per control-plane change (grants,
// reports, registrations, expiries) until the client hangs up or the
// coordinator stops.
func (c *Coordinator) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	snapshot := func() (any, bool) { return c.FleetStatus(), true }
	service.StreamNDJSON(w, r, c.done, c.changed, snapshot,
		func(struct{}) (any, bool) { return snapshot() })
}

// WriteMetrics renders the coordinator's exposition section — registered
// with service.Metrics.AddCollector so it rides the daemon's /metrics.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	now := c.cfg.Now()
	c.mu.Lock()
	st := c.stats
	open := len(c.leases)
	byWorker := c.workerStatusesLocked(now) // sorted slice, stable output
	c.mu.Unlock()

	fmt.Fprintln(w, "# HELP gpureld_fleet_leases_total Lease lifecycle events.")
	fmt.Fprintln(w, "# TYPE gpureld_fleet_leases_total counter")
	fmt.Fprintf(w, "gpureld_fleet_leases_total{event=\"granted\"} %d\n", st.Granted)
	fmt.Fprintf(w, "gpureld_fleet_leases_total{event=\"reported\"} %d\n", st.Reported)
	fmt.Fprintf(w, "gpureld_fleet_leases_total{event=\"dup_report\"} %d\n", st.DupReports)
	fmt.Fprintf(w, "gpureld_fleet_leases_total{event=\"expired\"} %d\n", st.Expired)
	fmt.Fprintf(w, "gpureld_fleet_leases_total{event=\"returned\"} %d\n", st.Returned)

	fmt.Fprintln(w, "# HELP gpureld_fleet_leases_open Leases currently outstanding.")
	fmt.Fprintln(w, "# TYPE gpureld_fleet_leases_open gauge")
	fmt.Fprintf(w, "gpureld_fleet_leases_open %d\n", open)

	health := map[service.WorkerHealth]int{}
	for _, ws := range byWorker {
		health[ws.Health]++
	}
	fmt.Fprintln(w, "# HELP gpureld_fleet_workers Workers per derived health state.")
	fmt.Fprintln(w, "# TYPE gpureld_fleet_workers gauge")
	for _, h := range service.WorkerHealthStates {
		fmt.Fprintf(w, "gpureld_fleet_workers{health=%q} %d\n", string(h), health[h])
	}

	fmt.Fprintln(w, "# HELP gpureld_fleet_worker_runs_total Runs accepted per reporting worker.")
	fmt.Fprintln(w, "# TYPE gpureld_fleet_worker_runs_total counter")
	for _, ws := range byWorker {
		fmt.Fprintf(w, "gpureld_fleet_worker_runs_total{worker=%q} %d\n", ws.Name, ws.RunsDone)
	}

	fmt.Fprintln(w, "# HELP gpureld_fleet_worker_lease_size Capability-scored adaptive lease size per worker.")
	fmt.Fprintln(w, "# TYPE gpureld_fleet_worker_lease_size gauge")
	for _, ws := range byWorker {
		fmt.Fprintf(w, "gpureld_fleet_worker_lease_size{worker=%q} %d\n", ws.Name, ws.LeaseSize)
	}
}
