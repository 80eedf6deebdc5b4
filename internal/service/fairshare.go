package service

import (
	"fmt"
	"io"
	"sort"
)

// Weighted fair-share across tenants, start-time fair queuing style: each
// tenant accrues virtual time as its jobs claim runs (vtime += runs/weight),
// and ClaimWork always serves the tenant with the smallest virtual time.
// Higher-priority tenants accrue slower, so they receive proportionally more
// runs; every tenant's virtual time grows whenever it is served, so no
// tenant with pending work waits forever (starvation-free).
//
// Determinism: ties break lexicographically by tenant name, and within a
// tenant jobs are served by (priority desc, submission order). A sequence of
// ClaimWork calls against a fixed job table therefore yields one schedule —
// the fair-share property tests rely on it. With a single tenant the tenant
// choice is forced and the within-tenant order with default priorities is
// submission order, i.e. exactly the pre-tenancy scheduler. (Concurrent
// ClaimWork callers interleave their claims nondeterministically, but each
// claim is still charged, so the fair-share *shares* converge regardless;
// and what each run measures never depends on who claimed it.)
//
// Virtual-time bookkeeping lives in Scheduler.vtime, guarded by s.mu. A
// tenant's entry is created when it first has claimable work — seeded at the
// minimum virtual time of the other active tenants so newcomers start level
// instead of replaying the whole past — and pruned once the tenant has no
// non-terminal jobs, so a tenant returning much later starts level again.

// claimCandidate is one job eligible for claiming, with its fair-share keys.
type claimCandidate struct {
	j      *job
	tenant string
	weight int
	prio   int
	idx    int // submission order
}

// claimPlan snapshots the eligible jobs grouped per tenant, in service
// order, and settles the vtime table (s.mu held).
func (s *Scheduler) claimPlanLocked() []string {
	// Tenants with a non-terminal job, first-seen (submission) order.
	active := map[string]bool{}
	var tenants []string
	for _, id := range s.order {
		j := s.jobs[id]
		// Lock order: s.mu before j.mu. Nothing takes s.mu while holding
		// j.mu (chargeClaim runs after the job unlock for exactly this
		// reason), so the brief nested acquisition here is safe. The state
		// may still flip right after — ClaimWork re-checks under j.mu.
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			continue
		}
		if t := j.spec.tenantName(); !active[t] {
			active[t] = true
			tenants = append(tenants, t)
		}
	}
	// Prune virtual time of tenants that no longer own any non-terminal job.
	for t := range s.vtime {
		if !active[t] {
			delete(s.vtime, t)
		}
	}
	// Seed newcomers at the minimum surviving virtual time.
	min, have := 0.0, false
	for _, v := range s.vtime {
		if !have || v < min {
			min, have = v, true
		}
	}
	for _, t := range tenants {
		if _, ok := s.vtime[t]; !ok {
			s.vtime[t] = min
		}
	}
	// Service order: smallest virtual time first, name breaks ties.
	sort.Slice(tenants, func(i, k int) bool {
		vi, vk := s.vtime[tenants[i]], s.vtime[tenants[k]]
		if vi != vk {
			return vi < vk
		}
		return tenants[i] < tenants[k]
	})
	return tenants
}

// tenantJobsLocked lists a tenant's jobs in within-tenant service order:
// priority descending, then submission order (s.mu held).
func (s *Scheduler) tenantJobsLocked(tenant string) []claimCandidate {
	var cands []claimCandidate
	for idx, id := range s.order {
		j := s.jobs[id]
		if j.spec.tenantName() != tenant || j.spec.Advise != nil {
			continue // an advise job holds no runs to claim
		}
		cands = append(cands, claimCandidate{
			j: j, tenant: tenant, weight: j.spec.weight(), prio: j.spec.weight(), idx: idx,
		})
	}
	sort.SliceStable(cands, func(i, k int) bool {
		if cands[i].prio != cands[k].prio {
			return cands[i].prio > cands[k].prio
		}
		return cands[i].idx < cands[k].idx
	})
	return cands
}

// ClaimWork hands out up to max runs from the fair-share winner among jobs
// with unclaimed work, flipping queued jobs to running. ok is false when no
// job has pending work — the caller (a fleet coordinator granting a lease)
// answers 204 and the worker polls again.
func (s *Scheduler) ClaimWork(max int) (WorkAssignment, bool) {
	if s.closed.Load() {
		return WorkAssignment{}, false
	}
	s.mu.Lock()
	tenants := s.claimPlanLocked()
	plan := make([][]claimCandidate, 0, len(tenants))
	for _, t := range tenants {
		plan = append(plan, s.tenantJobsLocked(t))
	}
	s.mu.Unlock()

	for _, cands := range plan {
		for _, c := range cands {
			j := c.j
			j.mu.Lock()
			if j.state.Terminal() {
				j.mu.Unlock()
				continue
			}
			if j.canceled {
				// A canceled job no longer hands out work; with local execution
				// disabled no lane would otherwise retire it, so settle it here.
				j.pending = nil
				j.claimed = nil
				s.finishLocked(j, StateCanceled, "")
				j.mu.Unlock()
				s.dirty.Store(true)
				continue
			}
			r, ok := s.claimLocked(j, max)
			if !ok {
				j.mu.Unlock()
				continue
			}
			if j.state == StateQueued {
				j.state = StateRunning
				j.started = s.cfg.Now()
				j.publishLocked(string(StateRunning))
			}
			w := WorkAssignment{JobID: j.id, Spec: j.spec, From: r.From, To: r.To}
			j.mu.Unlock()
			s.chargeClaim(c.tenant, c.weight, r.To-r.From)
			s.dirty.Store(true)
			return w, true
		}
	}
	return WorkAssignment{}, false
}

// chargeClaim advances a tenant's virtual time by the claimed runs over its
// weight.
func (s *Scheduler) chargeClaim(tenant string, weight, runs int) {
	if weight <= 0 {
		weight = 1
	}
	s.mu.Lock()
	if _, ok := s.vtime[tenant]; ok {
		s.vtime[tenant] += float64(runs) / float64(weight)
	}
	s.mu.Unlock()
}

// ReclaimWork moves the still-pending part of [from, to) of a job back to
// the claimed (in-flight) set — the fleet coordinator restoring a journaled
// lease after a restart, so the runs a live worker holds are not handed out
// a second time. Runs already merged or stashed are left alone (the worker's
// reports for them will be dropped as idempotent duplicates). Reports false
// when the job is unknown or terminal: the caller should drop the lease
// instead of restoring it.
func (s *Scheduler) ReclaimWork(jobID string, from, to int) bool {
	j, ok := s.campaignJob(jobID)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	for _, g := range intersectRanges(j.pending, Range{From: from, To: to}) {
		j.pending = subtractRanges(j.pending, g)
		j.claimed = addRange(j.claimed, g)
	}
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = s.cfg.Now()
		j.publishLocked(string(StateRunning))
	}
	s.dirty.Store(true)
	return true
}

// Tenants reports the per-tenant work accounting, sorted by tenant name —
// the fleet status document's "tenants" section and the per-tenant /metrics
// gauges.
func (s *Scheduler) Tenants() []TenantStatus {
	js := s.jobsInOrder()

	byName := map[string]*TenantStatus{}
	var names []string
	for _, j := range js {
		j.mu.Lock()
		tenant := j.spec.tenantName()
		ts := byName[tenant]
		if ts == nil {
			ts = &TenantStatus{Tenant: tenant, Weight: 1}
			byName[tenant] = ts
			names = append(names, tenant)
		}
		ts.TotalJobs++
		if !j.state.Terminal() {
			ts.ActiveJobs++
			if w := j.spec.weight(); w > ts.Weight {
				ts.Weight = w
			}
		}
		ts.PendingRuns += rangesLen(j.pending)
		ts.InFlightRuns += rangesLen(j.claimed)
		ts.DoneRuns += j.merger.To()
		j.mu.Unlock()
	}
	out := make([]TenantStatus, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	SortTenants(out)
	return out
}

// writeTenantMetrics is the /metrics collector for the per-tenant gauges,
// registered by NewScheduler.
func (s *Scheduler) writeTenantMetrics(w io.Writer) {
	tenants := s.Tenants()
	fmt.Fprintln(w, "# HELP gpureld_tenant_jobs Current jobs per tenant.")
	fmt.Fprintln(w, "# TYPE gpureld_tenant_jobs gauge")
	for _, t := range tenants {
		fmt.Fprintf(w, "gpureld_tenant_jobs{tenant=%q,state=\"active\"} %d\n", t.Tenant, t.ActiveJobs)
		fmt.Fprintf(w, "gpureld_tenant_jobs{tenant=%q,state=\"total\"} %d\n", t.Tenant, t.TotalJobs)
	}
	fmt.Fprintln(w, "# HELP gpureld_tenant_runs Run budget per tenant by ledger state.")
	fmt.Fprintln(w, "# TYPE gpureld_tenant_runs gauge")
	for _, t := range tenants {
		fmt.Fprintf(w, "gpureld_tenant_runs{tenant=%q,state=\"pending\"} %d\n", t.Tenant, t.PendingRuns)
		fmt.Fprintf(w, "gpureld_tenant_runs{tenant=%q,state=\"in_flight\"} %d\n", t.Tenant, t.InFlightRuns)
		fmt.Fprintf(w, "gpureld_tenant_runs{tenant=%q,state=\"done\"} %d\n", t.Tenant, t.DoneRuns)
	}
	fmt.Fprintln(w, "# HELP gpureld_tenant_weight Fair-share weight per tenant (highest active priority).")
	fmt.Fprintln(w, "# TYPE gpureld_tenant_weight gauge")
	for _, t := range tenants {
		fmt.Fprintf(w, "gpureld_tenant_weight{tenant=%q} %d\n", t.Tenant, t.Weight)
	}
}
