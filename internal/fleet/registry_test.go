// Worker-registry tests: health states derived from heartbeat history under
// an injected clock, capability-scored adaptive lease sizing, fault-model
// capability matching, and the unified error envelope on every fleet route.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// fakeClock is an injectable coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// clockHarness builds a coordinator on an injected clock with a huge sweep
// interval, so tests drive expiry explicitly via coord.Sweep().
func clockHarness(t *testing.T, clk *fakeClock, fcfg fleet.CoordinatorConfig) (*service.Scheduler, *fleet.Coordinator, *httptest.Server) {
	t.Helper()
	fcfg.Now = clk.Now
	if fcfg.Sweep <= 0 {
		fcfg.Sweep = time.Hour
	}
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(sched, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { sched.Close() })
	t.Cleanup(func() { coord.Close() })
	return sched, coord, srv
}

func registerWorker(t *testing.T, c *client.Client, spec service.WorkerSpec) service.WorkerStatus {
	t.Helper()
	st, err := c.RegisterWorker(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWorkerHealthLifecycle walks one worker through every derived health
// state: available on registration, busy while holding a lease, degraded
// after its lease expires, degraded again when its heartbeat goes stale,
// draining on DELETE, and available again after re-registration.
func TestWorkerHealthLifecycle(t *testing.T) {
	clk := newFakeClock()
	const ttl = 10 * time.Second
	sched, coord, srv := clockHarness(t, clk, fleet.CoordinatorConfig{
		LeaseRuns: 100, LeaseTTL: ttl, DegradedAfter: 2 * ttl,
	})
	c := client.New(srv.URL)
	ctx := context.Background()

	if st := registerWorker(t, c, service.WorkerSpec{Name: "hw"}); st.Health != service.HealthAvailable || !st.Registered {
		t.Fatalf("fresh worker = %+v, want available+registered", st)
	}

	// Grant a lease: busy.
	if _, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Lease(ctx, service.LeaseRequest{Worker: "hw"}); err != nil || !ok {
		t.Fatalf("lease: %v ok=%v", err, ok)
	}
	if st, err := c.GetWorker(ctx, "hw"); err != nil || st.Health != service.HealthBusy || st.OpenLeases != 1 {
		t.Fatalf("leased worker = %+v (%v), want busy with 1 open lease", st, err)
	}

	// Let the lease expire: the worker carries the expiry and reads
	// degraded for the DegradedAfter window.
	clk.Advance(ttl + time.Second)
	coord.Sweep()
	st, err := c.GetWorker(ctx, "hw")
	if err != nil || st.Health != service.HealthDegraded || st.ExpiredLeases != 1 {
		t.Fatalf("post-expiry worker = %+v (%v), want degraded with 1 expired lease", st, err)
	}

	// Past the window with no expiry in sight but also no traffic: stale
	// heartbeat keeps it degraded.
	clk.Advance(2*ttl + time.Second)
	if st, _ := c.GetWorker(ctx, "hw"); st.Health != service.HealthDegraded {
		t.Fatalf("stale worker = %+v, want degraded", st)
	}

	// Fresh traffic (an idle lease poll) makes it available again.
	if _, _, err := c.Lease(ctx, service.LeaseRequest{Worker: "hw", MaxRuns: 1}); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.GetWorker(ctx, "hw"); st.Health != service.HealthBusy && st.Health != service.HealthAvailable {
		t.Fatalf("refreshed worker = %+v", st)
	}

	// Drain: no leases granted until re-registration.
	if st, err := c.DrainWorker(ctx, "hw"); err != nil || st.Health != service.HealthDraining {
		t.Fatalf("drained worker = %+v (%v)", st, err)
	}
	if _, ok, err := c.Lease(ctx, service.LeaseRequest{Worker: "hw"}); err != nil || ok {
		t.Fatalf("draining worker granted a lease (ok=%v err=%v)", ok, err)
	}
	if st := registerWorker(t, c, service.WorkerSpec{Name: "hw"}); st.Health == service.HealthDraining {
		t.Fatalf("re-registration left worker draining: %+v", st)
	}
}

// TestAdaptiveLeaseSizing: grants scale with the worker's reported
// throughput — TargetLeaseSec seconds of work, clamped to
// [MinLeaseRuns, LeaseRuns] — and the request's own MaxRuns still caps the
// final grant.
func TestAdaptiveLeaseSizing(t *testing.T) {
	clk := newFakeClock()
	sched, _, srv := clockHarness(t, clk, fleet.CoordinatorConfig{
		LeaseRuns: 500, MinLeaseRuns: 16, TargetLeaseSec: 2, LeaseTTL: time.Hour,
	})
	c := client.New(srv.URL)
	ctx := context.Background()
	if _, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 100000, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	grant := func(req service.LeaseRequest) int {
		t.Helper()
		ls, ok, err := c.Lease(ctx, req)
		if err != nil || !ok {
			t.Fatalf("lease %+v: %v ok=%v", req, err, ok)
		}
		return ls.To - ls.From
	}

	// No throughput report: the fixed default.
	if n := grant(service.LeaseRequest{Worker: "plain"}); n != 500 {
		t.Errorf("default grant = %d, want 500", n)
	}
	// 100 runs/sec × 2 s horizon = 200 runs.
	if n := grant(service.LeaseRequest{Worker: "steady", RunsPerSec: 100}); n != 200 {
		t.Errorf("throughput-scored grant = %d, want 200", n)
	}
	// A very slow worker still gets the floor.
	if n := grant(service.LeaseRequest{Worker: "slow", RunsPerSec: 0.5}); n != 16 {
		t.Errorf("floored grant = %d, want 16", n)
	}
	// A very fast worker is clamped to the ceiling.
	if n := grant(service.LeaseRequest{Worker: "fast", RunsPerSec: 1e6}); n != 500 {
		t.Errorf("clamped grant = %d, want 500", n)
	}
	// The request's MaxRuns caps below the score.
	if n := grant(service.LeaseRequest{Worker: "steady", RunsPerSec: 100, MaxRuns: 50}); n != 50 {
		t.Errorf("request-capped grant = %d, want 50", n)
	}
	// The throughput rides the registry: the status document reflects it.
	st, err := c.GetWorker(ctx, "steady")
	if err != nil || st.Caps.RunsPerSec != 100 || st.LeaseSize != 200 {
		t.Errorf("registry record = %+v (%v), want rps=100 lease_size=200", st, err)
	}
}

// TestCapabilityModelMatching: a worker whose declared fault models exclude
// the job's model is not granted its work — the claim is returned for a
// capable worker.
func TestCapabilityModelMatching(t *testing.T) {
	clk := newFakeClock()
	sched, coord, srv := clockHarness(t, clk, fleet.CoordinatorConfig{LeaseRuns: 100, LeaseTTL: time.Hour})
	c := client.New(srv.URL)
	ctx := context.Background()

	stuck := 1
	if _, err := sched.Submit(service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1", Structure: "RF", Runs: 300, Seed: 1,
		Fault: &service.FaultSpec{Model: "stuck", Stuck: &stuck},
	}); err != nil {
		t.Fatal(err)
	}

	registerWorker(t, c, service.WorkerSpec{Name: "transient-only",
		Caps: service.WorkerCaps{FaultModels: []string{"transient"}}})
	if _, ok, err := c.Lease(ctx, service.LeaseRequest{Worker: "transient-only"}); err != nil || ok {
		t.Fatalf("incapable worker granted a stuck-model lease (ok=%v err=%v)", ok, err)
	}
	// The returned claim is immediately available to a capable worker.
	ls, ok, err := c.Lease(ctx, service.LeaseRequest{Worker: "omni"})
	if err != nil || !ok {
		t.Fatalf("capable worker got nothing: %v ok=%v", err, ok)
	}
	if ls.From != 0 {
		t.Errorf("capable worker's lease starts at %d, want 0 (the returned claim)", ls.From)
	}
	if st := coord.Stats(); st.Granted != 1 {
		t.Errorf("stats = %+v, want exactly 1 grant", st)
	}
}

// TestFleetErrorEnvelope: every /v1 fleet route answers errors with the
// unified {"error":{"code","message"}} envelope.
func TestFleetErrorEnvelope(t *testing.T) {
	clk := newFakeClock()
	_, _, srv := clockHarness(t, clk, fleet.CoordinatorConfig{})

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	check := func(data []byte, wantCode string) {
		t.Helper()
		var env service.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != wantCode || env.Error.Message == "" {
			t.Errorf("error body %q, want envelope with code %q", data, wantCode)
		}
	}

	resp, data := post("/v1/leases", `{"lease":{"worker":"w"},"worker":"w"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed lease spelling: status %d, want 400", resp.StatusCode)
	}
	check(data, service.ErrCodeBadRequest)

	// The bare pre-v1 bodies are negative fixtures: the envelope is
	// mandatory on requests and reports alike.
	bare, err := os.ReadFile("../service/testdata/leasespec_legacy.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, data = post("/v1/leases", string(bare))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare lease request: status %d, want 400", resp.StatusCode)
	}
	check(data, service.ErrCodeBadRequest)

	resp, data = post("/v1/leases/nosuch/report", `{"worker":"w","from":0,"to":1,"tally":{"N":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare lease report: status %d, want 400", resp.StatusCode)
	}
	check(data, service.ErrCodeBadRequest)

	resp, data = post("/v1/leases", `{"lease":{"max_runs":-5}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid lease: status %d, want 400", resp.StatusCode)
	}
	check(data, service.ErrCodeBadRequest)

	resp, data = post("/v1/leases/nosuch/report", `{"report":{"worker":"w","from":0,"to":1,"tally":{"N":1}}}`)
	if resp.StatusCode != http.StatusGone {
		t.Errorf("report to unknown lease: status %d, want 410", resp.StatusCode)
	}
	check(data, service.ErrCodeGone)

	resp, data = post("/v1/workers", `{"name":"w"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare worker spec: status %d, want 400", resp.StatusCode)
	}
	check(data, service.ErrCodeBadRequest)

	httpReq, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/workers/nosuch", nil)
	resp2, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker: status %d, want 404", resp2.StatusCode)
	}
	check(data, service.ErrCodeNotFound)

	// The client surfaces the envelope's code and message.
	_, err = client.New(srv.URL).GetWorker(context.Background(), "nosuch")
	if err == nil || !strings.Contains(err.Error(), service.ErrCodeNotFound) {
		t.Errorf("client error %v, want the envelope code surfaced", err)
	}
}
