// TestFleetStatusArtifact runs a small two-worker, two-tenant campaign with
// registered workers, one measuring its throughput from its first chunk,
// pins the fleet-status document's shape,
// and — when GPUREL_FLEET_JSON names a path — writes the document for the
// CI artifact (uploaded as fleet_status.json).
package fleet_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

func TestFleetStatusArtifact(t *testing.T) {
	sched, coord, srv := harness(t,
		service.Config{Source: synthSource(50 * time.Microsecond), DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseRuns: 120, LeaseTTL: 10 * time.Second, TargetLeaseSec: 1},
	)
	c := client.New(srv.URL)
	ctx := context.Background()

	const (
		aliceRuns = 600
		bobRuns   = 400
	)
	var ids []string
	for _, spec := range []service.JobSpec{
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: aliceRuns, Seed: 21, Tenant: "alice", Priority: 2},
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: bobRuns, Seed: 22, Tenant: "bob"},
	} {
		st, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Two registered workers with distinct capability reports: one whose
	// rate its chunks measure, one with a declared rate.
	startWorker(t, fleet.WorkerConfig{
		ID: "art-a", Client: client.New(srv.URL), Source: synthSource(50 * time.Microsecond),
		Chunk: 60, Workers: 2, Poll: 2 * time.Millisecond, Backoff: testBackoff,
		Caps: service.WorkerCaps{SnapMB: 256},
	})
	startWorker(t, fleet.WorkerConfig{
		ID: "art-b", Client: client.New(srv.URL), Source: synthSource(50 * time.Microsecond),
		Chunk: 60, Workers: 2, Poll: 2 * time.Millisecond, Backoff: testBackoff,
		Caps: service.WorkerCaps{RunsPerSec: 500, SnapMB: 128},
	})

	for _, id := range ids {
		if final := waitTerminal(t, sched, id, 60*time.Second); final.State != service.StateDone {
			t.Fatalf("job %s ended %s: %+v", id, final.State, final)
		}
	}

	// A measured rate reaches the registry with the first lease request
	// after the worker's first chunk report.
	var fs service.FleetStatus
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var err error
		if fs, err = c.FleetStatus(ctx); err != nil {
			t.Fatal(err)
		}
		measured := true
		for _, w := range fs.Workers {
			measured = measured && w.Caps.RunsPerSec > 0
		}
		if measured || time.Now().After(deadline) {
			break
		}
	}
	if len(fs.Workers) != 2 || fs.Workers[0].Name != "art-a" || fs.Workers[1].Name != "art-b" {
		t.Fatalf("workers = %+v, want [art-a art-b]", fs.Workers)
	}
	var runsDone int64
	for _, w := range fs.Workers {
		if !w.Registered {
			t.Errorf("worker %s not registered", w.Name)
		}
		if w.Caps.RunsPerSec <= 0 {
			t.Errorf("worker %s reported no throughput (measured or declared rate missing): %+v", w.Name, w.Caps)
		}
		runsDone += w.RunsDone
	}
	if runsDone != aliceRuns+bobRuns {
		t.Errorf("workers did %d runs, want %d", runsDone, aliceRuns+bobRuns)
	}
	if len(fs.Tenants) != 2 || fs.Tenants[0].Tenant != "alice" || fs.Tenants[1].Tenant != "bob" {
		t.Fatalf("tenants = %+v, want [alice bob]", fs.Tenants)
	}
	if fs.Tenants[0].DoneRuns != aliceRuns || fs.Tenants[1].DoneRuns != bobRuns {
		t.Errorf("tenant accounting = %+v", fs.Tenants)
	}
	if fs.OpenLeases != 0 || fs.Leases.Granted == 0 || fs.Leases.Reported == 0 {
		t.Errorf("lease counters = open %d, %+v", fs.OpenLeases, fs.Leases)
	}
	if st := coord.Stats(); st.Granted != fs.Leases.Granted {
		t.Errorf("document granted %d != coordinator stats %+v", fs.Leases.Granted, st)
	}

	if path := os.Getenv("GPUREL_FLEET_JSON"); path != "" {
		out, err := json.MarshalIndent(fs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote fleet status artifact to %s", path)
	}
}
