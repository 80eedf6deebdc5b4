// The client's fleet types must be the server's fleet types: the golden
// worker-registration and fleet-status fixtures round-trip bit-identically
// through the client aliases, and the fleet helper methods work end to end
// against a live coordinator — register, lease, report, drain, status,
// watch.
package client_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerSpecGoldenRoundTrip: the registration fixture decodes through
// the client alias, validates, and re-encodes to an equivalent document.
func TestWorkerSpecGoldenRoundTrip(t *testing.T) {
	data := readFixture(t, "workerspec.json")
	var spec client.WorkerSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Name != "rig-03" || spec.Caps.RunsPerSec != 118.5 || spec.Caps.SnapMB != 512 {
		t.Errorf("decoded spec %+v", spec)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("golden fixture invalid: %v", err)
	}
	// The client type IS the server type: same decode.
	var srv service.WorkerSpec
	if err := json.Unmarshal(data, &srv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, srv) {
		t.Errorf("client and server decode diverge:\nclient %+v\nserver %+v", spec, srv)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"worker"`) {
		t.Errorf("re-encode lost the envelope: %s", out)
	}
	var back client.WorkerSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip drifted:\nbefore %+v\nafter  %+v", spec, back)
	}
}

// TestFleetStatusGoldenRoundTrip: the fleet-status document decodes through
// the client alias with every section intact and round-trips bit-identically.
func TestFleetStatusGoldenRoundTrip(t *testing.T) {
	data := readFixture(t, "fleetstatus.json")
	var fs client.FleetStatus
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Workers) != 2 || len(fs.Tenants) != 2 {
		t.Fatalf("decoded status %+v", fs)
	}
	if fs.Workers[0].Name != "rig-03" || fs.Workers[0].Health != client.HealthBusy ||
		fs.Workers[1].Health != client.HealthDegraded || fs.Workers[1].ExpiredLeases != 3 {
		t.Errorf("workers = %+v", fs.Workers)
	}
	if fs.Tenants[0].Tenant != "alice" || fs.Tenants[0].Weight != 4 || fs.Tenants[0].DoneRuns != 7000 {
		t.Errorf("tenants = %+v", fs.Tenants)
	}
	if fs.OpenLeases != 2 || fs.Leases.Granted != 64 || fs.Leases.Expired != 3 || !fs.Journaled {
		t.Errorf("counters = %+v", fs)
	}
	counts := fs.HealthCounts()
	if counts[client.HealthBusy] != 1 || counts[client.HealthDegraded] != 1 ||
		counts[client.HealthAvailable] != 0 || counts[client.HealthDraining] != 0 {
		t.Errorf("health counts = %v", counts)
	}
	out, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	var back client.FleetStatus
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, fs) {
		t.Errorf("round trip drifted:\nbefore %+v\nafter  %+v", fs, back)
	}
}

// newFleetClient wires a coordinator-only daemon (no local executors) with a
// deterministic synthetic source, exactly like the fleet package's harness.
func newFleetClient(t *testing.T) *client.Client {
	t.Helper()
	source := func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if rng.Intn(10) == 0 {
				return faults.Result{Outcome: faults.SDC}
			}
			return faults.Result{Outcome: faults.Masked}
		}, nil
	}
	sched, err := service.NewScheduler(service.Config{Source: source, DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{LeaseRuns: 50, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { sched.Close() })
	t.Cleanup(func() { coord.Close() })
	return client.New(srv.URL)
}

// TestFleetClientEndToEnd drives the full fleet surface through the client:
// register, list, lease+report a two-tenant campaign, status, watch, drain.
func TestFleetClientEndToEnd(t *testing.T) {
	c := newFleetClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := c.RegisterWorker(ctx, client.WorkerSpec{Name: "e2e", Caps: client.WorkerCaps{RunsPerSec: 100}})
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if st.Health != client.HealthAvailable || !st.Registered || st.Caps.RunsPerSec != 100 {
		t.Fatalf("registered status %+v", st)
	}
	if list, err := c.ListWorkers(ctx); err != nil || len(list) != 1 || list[0].Name != "e2e" {
		t.Fatalf("ListWorkers: %v (%+v)", err, list)
	}

	// A two-tenant campaign executed entirely through client leases.
	jobs := map[string]client.JobSpec{}
	for _, spec := range []client.JobSpec{
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: 120, Seed: 7, Tenant: "alice", Priority: 3},
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: 80, Seed: 9, Tenant: "bob"},
	} {
		js, err := c.SubmitJob(ctx, spec)
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		jobs[js.ID] = spec
	}
	for {
		ls, ok, err := c.Lease(ctx, client.LeaseRequest{Worker: "e2e", RunsPerSec: 100})
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if !ok {
			break
		}
		exp := func(run int, rng *rand.Rand) faults.Result {
			if rng.Intn(10) == 0 {
				return faults.Result{Outcome: faults.SDC}
			}
			return faults.Result{Outcome: faults.Masked}
		}
		tl := campaign.RunRange(campaign.Options{Runs: ls.Spec.Runs, Seed: ls.Spec.Seed}, ls.From, ls.To, exp)
		ack, err := c.ReportLease(ctx, ls.ID, client.LeaseReport{Worker: "e2e", From: ls.From, To: ls.To, Tally: tl, Done: true})
		if err != nil {
			t.Fatalf("ReportLease: %v", err)
		}
		if !ack.Accepted {
			t.Fatalf("report rejected: %+v", ack)
		}
	}
	for id, spec := range jobs {
		js, err := c.WaitJob(ctx, id)
		if err != nil || js.State != client.StateDone || js.Done != spec.Runs {
			t.Fatalf("job %s: %v (%+v)", id, err, js)
		}
	}

	fs, err := c.FleetStatus(ctx)
	if err != nil {
		t.Fatalf("FleetStatus: %v", err)
	}
	if len(fs.Workers) != 1 || fs.Workers[0].Name != "e2e" || fs.Workers[0].RunsDone != 200 {
		t.Errorf("fleet workers = %+v, want e2e with 200 runs done", fs.Workers)
	}
	if len(fs.Tenants) != 2 || fs.Tenants[0].Tenant != "alice" || fs.Tenants[1].Tenant != "bob" {
		t.Errorf("fleet tenants = %+v, want [alice bob]", fs.Tenants)
	}
	if fs.Tenants[0].DoneRuns != 120 || fs.Tenants[1].DoneRuns != 80 {
		t.Errorf("tenant runs = %+v", fs.Tenants)
	}
	if fs.OpenLeases != 0 || fs.Leases.Granted == 0 || fs.Leases.Reported == 0 {
		t.Errorf("lease counters = %+v", fs)
	}

	// The watch stream opens with a snapshot matching GET /v1/fleet.
	var first client.FleetStatus
	stop := func(got client.FleetStatus) error { first = got; return context.Canceled }
	if err := c.WatchFleet(ctx, stop); err != nil && err != context.Canceled {
		t.Fatalf("WatchFleet: %v", err)
	}
	if !reflect.DeepEqual(first.Tenants, fs.Tenants) || first.Leases != fs.Leases {
		t.Errorf("watch snapshot diverges from GET:\nwatch %+v\nget   %+v", first, fs)
	}

	if st, err := c.DrainWorker(ctx, "e2e"); err != nil || st.Health != client.HealthDraining {
		t.Fatalf("DrainWorker: %v (%+v)", err, st)
	}
	if _, err := c.GetWorker(ctx, "ghost"); err == nil || !strings.Contains(err.Error(), service.ErrCodeNotFound) {
		t.Errorf("GetWorker(ghost) err = %v, want the envelope code surfaced", err)
	}
}
