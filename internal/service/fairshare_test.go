// Fair-share scheduler properties: the claim schedule is a deterministic
// function of the job table, single-tenant workloads reduce exactly to the
// pre-tenancy submission order, weighted tenants receive proportional
// shares, and no tenant with pending work starves.
package service_test

import (
	"fmt"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/service"
)

// claimSched builds a local-execution-disabled scheduler whose work ledger
// is drained manually through ClaimWork, the way a fleet coordinator does.
func claimSched(t *testing.T) *service.Scheduler {
	t.Helper()
	sched, err := service.NewScheduler(service.Config{
		Source:           fakeSource(0),
		DisableLocalExec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	return sched
}

// claim is one recorded ClaimWork grant.
type claim struct {
	JobID    string
	From, To int
}

// drainClaims claims chunk-run grants until the ledger is empty, returning
// the full schedule.
func drainClaims(t *testing.T, sched *service.Scheduler, chunk int) []claim {
	t.Helper()
	var out []claim
	for {
		wa, ok := sched.ClaimWork(chunk)
		if !ok {
			return out
		}
		out = append(out, claim{JobID: wa.JobID, From: wa.From, To: wa.To})
		if len(out) > 100000 {
			t.Fatal("claim schedule does not terminate")
		}
	}
}

// submitTenant files one job for a tenant and returns its ID.
func submitTenant(t *testing.T, sched *service.Scheduler, tenant string, prio, runs int) string {
	t.Helper()
	st, err := sched.Submit(service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: 1,
		Tenant: tenant, Priority: prio,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestFairShareSingleTenantIdentical: with one tenant and default
// priorities the fair-share scheduler degenerates to the pre-tenancy
// behavior — jobs drain whole, in submission order, in contiguous
// run-ranges.
func TestFairShareSingleTenantIdentical(t *testing.T) {
	sched := claimSched(t)
	a := submitTenant(t, sched, "", 0, 250)
	b := submitTenant(t, sched, "", 0, 100)
	got := drainClaims(t, sched, 100)

	want := []claim{
		{a, 0, 100}, {a, 100, 200}, {a, 200, 250},
		{b, 0, 100},
	}
	if len(got) != len(want) {
		t.Fatalf("schedule length %d, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim %d = %+v, want %+v (full: %+v)", i, got[i], want[i], got)
		}
	}
}

// TestFairShareDeterministic: the same submissions yield bit-identical claim
// schedules on independent schedulers — the fleet's recovery guarantees rest
// on this.
func TestFairShareDeterministic(t *testing.T) {
	build := func() ([]claim, []string) {
		sched := claimSched(t)
		ids := []string{
			submitTenant(t, sched, "alice", 0, 300),
			submitTenant(t, sched, "bob", 2, 300),
			submitTenant(t, sched, "alice", 5, 200),
			submitTenant(t, sched, "", 0, 150),
		}
		return drainClaims(t, sched, 50), ids
	}
	s1, ids1 := build()
	s2, ids2 := build()
	if len(s1) != len(s2) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(s1), len(s2))
	}
	// Job IDs are per-scheduler; compare by submission index.
	idx := func(ids []string, job string) int {
		for i, id := range ids {
			if id == job {
				return i
			}
		}
		return -1
	}
	for i := range s1 {
		a := claim{fmt.Sprint(idx(ids1, s1[i].JobID)), s1[i].From, s1[i].To}
		b := claim{fmt.Sprint(idx(ids2, s2[i].JobID)), s2[i].From, s2[i].To}
		if a != b {
			t.Fatalf("schedules diverge at claim %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestFairSharePriorityWithinTenant: inside one tenant, a higher-priority
// job drains before earlier-submitted lower-priority work.
func TestFairSharePriorityWithinTenant(t *testing.T) {
	sched := claimSched(t)
	low := submitTenant(t, sched, "team", 1, 100)
	high := submitTenant(t, sched, "team", 9, 100)
	got := drainClaims(t, sched, 100)
	want := []claim{{high, 0, 100}, {low, 0, 100}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("schedule %+v, want %+v", got, want)
	}
}

// TestFairShareWeightedShares: over a prefix of the schedule, a weight-3
// tenant receives about three times the runs of a weight-1 tenant.
func TestFairShareWeightedShares(t *testing.T) {
	sched := claimSched(t)
	heavy := submitTenant(t, sched, "heavy", 3, 3000)
	light := submitTenant(t, sched, "light", 1, 3000)

	// Sample the shares while both tenants still have pending work: the
	// first 1200 runs (24 claims of 50).
	runs := map[string]int{}
	for i := 0; i < 24; i++ {
		wa, ok := sched.ClaimWork(50)
		if !ok {
			t.Fatal("ledger drained early")
		}
		runs[wa.JobID] += wa.To - wa.From
	}
	h, l := runs[heavy], runs[light]
	if h+l != 1200 {
		t.Fatalf("accounting broken: heavy %d + light %d != 1200", h, l)
	}
	// Ideal split is 900/300; claim granularity (50 runs charged at 50/3
	// vs 50 virtual time) wobbles it by at most one claim each way.
	if h < 800 || h > 1000 {
		t.Errorf("weight-3 tenant got %d of 1200 runs, want ~900", h)
	}
}

// TestFairShareStarvationFree: with many tenants at spread-out weights,
// every tenant with pending work is served within a bounded window — no
// tenant waits on the others indefinitely.
func TestFairShareStarvationFree(t *testing.T) {
	sched := claimSched(t)
	const tenants, runsEach, chunk = 5, 400, 20
	jobs := map[string]string{} // job ID -> tenant
	weights := map[string]int{}
	totalWeight := 0
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		w := i + 1 // weights 1..5
		jobs[submitTenant(t, sched, name, w, runsEach)] = name
		weights[name] = w
		totalWeight += w
	}

	pending := map[string]int{}
	for _, name := range jobs {
		pending[name] += runsEach
	}
	lastServed := map[string]int{}
	sched.ClaimWork(0) // no-op guard: zero max claims nothing
	for i := 0; ; i++ {
		wa, ok := sched.ClaimWork(chunk)
		if !ok {
			break
		}
		tenant := jobs[wa.JobID]
		pending[tenant] -= wa.To - wa.From
		lastServed[tenant] = i
		// Starvation bound: while a tenant has pending work, the gap since
		// its last serve cannot exceed the claims the whole fleet of other
		// tenants can squeeze into one of its virtual-time steps — at most
		// totalWeight/weight claims, padded by one boundary claim per tenant.
		for name, p := range pending {
			if p <= 0 {
				continue
			}
			gap := i - lastServed[name]
			bound := totalWeight/weights[name] + tenants + 1
			if gap > bound {
				t.Fatalf("tenant %s (weight %d) starved: %d claims since last serve at claim %d (bound %d)",
					name, weights[name], gap, i, bound)
			}
		}
	}
	for name, p := range pending {
		if p != 0 {
			t.Errorf("tenant %s left with %d pending runs", name, p)
		}
	}
}

// TestFairShareTenantsAccounting: the Tenants() document partitions each
// tenant's runs across pending/in-flight/done and tracks the active weight.
func TestFairShareTenantsAccounting(t *testing.T) {
	sched := claimSched(t)
	id := submitTenant(t, sched, "acct", 4, 300)
	submitTenant(t, sched, "other", 0, 100)

	wa, ok := sched.ClaimWork(120)
	if !ok || wa.JobID != id {
		t.Fatalf("claim = %+v %v, want job %s", wa, ok, id)
	}
	if _, _, err := sched.ReportWork(id, wa.From, wa.From+60, campaign.Tally{N: 60}); err != nil {
		t.Fatal(err)
	}

	var acct *service.TenantStatus
	for _, ts := range sched.Tenants() {
		if ts.Tenant == "acct" {
			cp := ts
			acct = &cp
		}
	}
	if acct == nil {
		t.Fatal("tenant acct missing from Tenants()")
	}
	if acct.Weight != 4 || acct.ActiveJobs != 1 || acct.TotalJobs != 1 {
		t.Errorf("tenant header = %+v", acct)
	}
	if acct.DoneRuns != 60 || acct.InFlightRuns != 60 || acct.PendingRuns != 180 {
		t.Errorf("run partition = done %d, in-flight %d, pending %d; want 60/60/180",
			acct.DoneRuns, acct.InFlightRuns, acct.PendingRuns)
	}
}

// TestReclaimWork: restoring a journaled lease re-pins its pending remainder
// as in-flight (so it is not granted twice) and refuses gone or terminal
// jobs.
func TestReclaimWork(t *testing.T) {
	sched := claimSched(t)
	id := submitTenant(t, sched, "", 0, 200)

	// Simulate a coordinator crash: the lease [0,100) was granted and its
	// worker reported [0,40) before the crash; the restarted coordinator
	// reclaims the remainder.
	wa, ok := sched.ClaimWork(100)
	if !ok {
		t.Fatal("no work")
	}
	if _, _, err := sched.ReportWork(id, 0, 40, campaign.Tally{N: 40}); err != nil {
		t.Fatal(err)
	}
	// The crash dropped the in-flight pin: everything unmerged is pending
	// again (ReturnWork is what a journal-less Close does).
	sched.ReturnWork(id, wa.From, wa.To)

	if !sched.ReclaimWork(id, wa.From, wa.To) {
		t.Fatal("ReclaimWork refused a live job")
	}
	// The reclaimed range must not be claimable: only [100,200) remains.
	got := drainClaims(t, sched, 500)
	if len(got) != 1 || got[0] != (claim{id, 100, 200}) {
		t.Fatalf("post-reclaim schedule %+v, want [{%s 100 200}]", got, id)
	}

	if sched.ReclaimWork("nosuchjob", 0, 10) {
		t.Error("ReclaimWork accepted an unknown job")
	}
}

// BenchmarkClaimWork: one claim against two live jobs, one per tenant, with
// 0, 1 000 and 10 000 finished jobs resident across the same two tenants.
// The finished jobs are set up once per size, so the figure is the steady
// claim cost.
func BenchmarkClaimWork(b *testing.B) {
	for _, finished := range []int{0, 1000, 10000} {
		sched, err := service.NewScheduler(service.Config{Source: fakeSource(0), DisableLocalExec: true})
		if err != nil {
			b.Fatal(err)
		}
		tenants := []string{"alice", "bob"}
		for i := 0; i < finished; i++ {
			spec := service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 1, Seed: 1, Tenant: tenants[i%2]}
			st, err := sched.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if st, _, err = sched.ReportWork(st.ID, 0, 1, synthRange(spec, 0, 1)); err != nil || st.State != service.StateDone {
				b.Fatalf("finished job %s: %v", st.State, err)
			}
		}
		for _, tenant := range tenants {
			if _, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1",
				Runs: 1 << 30, Seed: 1, Tenant: tenant}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("finished=%d", finished), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := sched.ClaimWork(1); !ok {
					b.Fatal("no work to claim")
				}
			}
		})
		sched.Close()
	}
}
