// End-to-end fleet tests: a campaign split across multiple workers — with
// one killed mid-lease — must tally bit-identically to single-node
// execution, expired leases must requeue exactly once, drained workers must
// hand their leases back, and a coordinator with no workers joined must
// degrade to plain local execution.
package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/advisor"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// outcome is the synthetic deterministic classification shared with the
// service tests: what matters is that it is a pure function of the run RNG.
func outcome(rng *rand.Rand) faults.Result {
	switch rng.Intn(10) {
	case 0:
		return faults.Result{Outcome: faults.SDC}
	case 1:
		return faults.Result{Outcome: faults.DUE}
	case 2:
		return faults.Result{Outcome: faults.Timeout}
	case 3:
		return faults.Result{Outcome: faults.Masked, CtrlAffected: true}
	default:
		return faults.Result{Outcome: faults.Masked}
	}
}

func synthSource(perRun time.Duration) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if perRun > 0 {
				time.Sleep(perRun)
			}
			return outcome(rng)
		}, nil
	}
}

// testBackoff keeps worker retries snappy so a killed coordinator link is
// detected in milliseconds, not seconds.
var testBackoff = client.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Tries: 2}

// harness wires a scheduler, a coordinator mounted on its v1 mux, and an
// HTTP server, with cleanup in dependency order.
func harness(t *testing.T, cfg service.Config, fcfg fleet.CoordinatorConfig) (*service.Scheduler, *fleet.Coordinator, *httptest.Server) {
	t.Helper()
	sched, err := service.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(sched, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched.Metrics().AddCollector(coord.WriteMetrics)
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { sched.Close() })
	t.Cleanup(func() { coord.Close() })
	return sched, coord, srv
}

// waitTerminal polls a job to its terminal state.
func waitTerminal(t *testing.T, sched *service.Scheduler, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := sched.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startWorker launches a fleet worker goroutine and returns a kill function
// (cancel without drain semantics live in the caller's hands: cancel ctx =
// graceful drain; closing the worker's server = crash).
func startWorker(t *testing.T, cfg fleet.WorkerConfig) (worker *fleet.Worker, stop func()) {
	t.Helper()
	w, err := fleet.NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A worker whose coordinator link died returns an error; tests that
		// kill the link expect that, so it is not fatal here.
		w.Run(ctx) //nolint:errcheck
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return w, stop
}

// TestFleetKillWorkerBitIdentical is the acceptance e2e: two workers drive
// a campaign on a coordinator with local execution disabled; one worker is
// killed mid-lease (its coordinator link is severed, so it can neither
// report nor return the lease); the lease expires and is requeued exactly
// once; the final tally is bit-identical to a single-node campaign.Run.
func TestFleetKillWorkerBitIdentical(t *testing.T) {
	const runs, seed = 2000, 9
	sched, coord, srv := harness(t,
		service.Config{Source: synthSource(500 * time.Microsecond), DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseRuns: 400, LeaseTTL: 250 * time.Millisecond, Sweep: 25 * time.Millisecond},
	)

	// Worker A reaches the coordinator through its own server handle so the
	// test can sever exactly its link — a process kill, as seen from the
	// coordinator.
	proxyA := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))

	st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	wA, _ := startWorker(t, fleet.WorkerConfig{
		ID: "worker-a", Client: client.New(proxyA.URL), Source: synthSource(500 * time.Microsecond),
		Chunk: 100, Workers: 2, Poll: 5 * time.Millisecond, Backoff: testBackoff,
	})

	// Let A merge at least one chunk of its first lease, then kill it
	// mid-lease.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := sched.Get(st.ID)
		if got.Done >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker A made no progress: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	proxyA.Close()

	// Worker B finishes the job, including the killed worker's requeued
	// remainder.
	startWorker(t, fleet.WorkerConfig{
		ID: "worker-b", Client: client.New(srv.URL), Source: synthSource(500 * time.Microsecond),
		Chunk: 100, Workers: 2, Poll: 5 * time.Millisecond, Backoff: testBackoff,
	})

	final := waitTerminal(t, sched, st.ID, 60*time.Second)
	if final.State != service.StateDone || final.Done != runs {
		t.Fatalf("job = %+v", final)
	}
	want := campaign.Run(campaign.Options{Runs: runs, Seed: seed}, func(run int, rng *rand.Rand) faults.Result {
		return outcome(rng)
	})
	if final.Tally != want {
		t.Errorf("fleet tally %+v != single-node %+v", final.Tally, want)
	}

	stats := coord.Stats()
	if stats.Expired != 1 {
		t.Errorf("expired leases = %d, want exactly 1 (the killed worker's)", stats.Expired)
	}
	if stats.Granted < 2 {
		t.Errorf("granted leases = %d, want >= 2 (both workers)", stats.Granted)
	}
	if wA.Runs() == 0 {
		t.Error("worker A executed nothing before being killed")
	}

	// The per-worker fleet counters ride the daemon's /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, needle := range []string{
		`gpureld_fleet_leases_total{event="expired"} 1`,
		`gpureld_fleet_worker_runs_total{worker="worker-a"}`,
		`gpureld_fleet_worker_runs_total{worker="worker-b"}`,
		`gpureld_fleet_leases_open 0`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q in:\n%s", needle, text)
		}
	}
}

// TestFleetAdaptiveOutOfOrder: an adaptive job split across two racing
// workers stops at the same batch boundary with the same tally as the
// local sequential adaptive engine — the prefix merger evaluates the stop
// rule on exactly the prefixes a single node would have, no matter the
// report arrival order.
func TestFleetAdaptiveOutOfOrder(t *testing.T) {
	const runs, seed, margin = 3000, 42, 0.0235
	lowFR := func(run int, rng *rand.Rand) faults.Result {
		if rng.Float64() < 0.02 {
			return faults.Result{Outcome: faults.SDC}
		}
		return faults.Result{Outcome: faults.Masked}
	}
	src := func(spec service.JobSpec) (campaign.Experiment, error) { return lowFR, nil }

	sched, _, srv := harness(t,
		service.Config{Source: src, DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseRuns: 500, LeaseTTL: 5 * time.Second},
	)
	st, err := sched.Submit(service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: seed,
		Sampling: &service.SamplingSpec{Margin99: margin},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Different chunk sizes make the two workers' reports interleave out of
	// order across lease boundaries.
	for i, chunk := range []int{30, 100} {
		startWorker(t, fleet.WorkerConfig{
			ID: []string{"adaptive-a", "adaptive-b"}[i], Client: client.New(srv.URL), Source: src,
			Chunk: chunk, Workers: 1, Poll: time.Millisecond, Backoff: testBackoff,
		})
	}

	final := waitTerminal(t, sched, st.ID, 60*time.Second)
	want := adaptive.Run(campaign.Options{Runs: runs, Seed: seed}, adaptive.Policy{Margin: margin}, lowFR)
	if !want.EarlyStopped {
		t.Fatal("test premise broken: local adaptive run did not stop early")
	}
	if final.State != service.StateDone || final.Tally != want.Tally || final.Done != want.Tally.N {
		t.Errorf("fleet adaptive job %+v != local adaptive stop (n=%d, %+v)", final, want.Tally.N, want.Tally)
	}
	if !final.EarlyStopped || final.RunsSaved != runs-want.Tally.N {
		t.Errorf("savings not reported: %+v", final)
	}
}

// TestFleetDrainReturnsLease: a worker canceled mid-lease returns the
// unexecuted remainder (no TTL wait), and the local lanes finish the job
// bit-identically.
func TestFleetDrainReturnsLease(t *testing.T) {
	const runs, seed = 2000, 5
	sched, coord, srv := harness(t,
		service.Config{Source: synthSource(200 * time.Microsecond), ChunkSize: 50},
		fleet.CoordinatorConfig{LeaseRuns: 1000, LeaseTTL: 30 * time.Second},
	)
	st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	_, stop := startWorker(t, fleet.WorkerConfig{
		ID: "drainer", Client: client.New(srv.URL), Source: synthSource(200 * time.Microsecond),
		Chunk: 50, Workers: 1, Poll: time.Millisecond, Backoff: testBackoff,
	})
	// Let the worker claim and partially execute its big lease, then drain
	// it gracefully.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().Granted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never claimed a lease")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	stop()

	final := waitTerminal(t, sched, st.ID, 60*time.Second)
	if final.State != service.StateDone || final.Done != runs {
		t.Fatalf("job = %+v", final)
	}
	want := campaign.Run(campaign.Options{Runs: runs, Seed: seed}, func(run int, rng *rand.Rand) faults.Result {
		return outcome(rng)
	})
	if final.Tally != want {
		t.Errorf("drained-fleet tally %+v != single-node %+v", final.Tally, want)
	}
	if stats := coord.Stats(); stats.Returned == 0 && stats.Expired == 0 {
		t.Errorf("drained lease neither returned nor expired: %+v", stats)
	}
}

// TestFleetRealStudyParity drives a real SRADv1 RF micro-injection campaign
// through the bench harness (coordinator-only daemon, two workers) and
// checks the fleet tally against the plain in-process campaign over the
// same study source.
func TestFleetRealStudyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator campaign")
	}
	study := gpurel.NewStudy(0, 1)
	source := service.NewStudySource(study)
	spec := service.JobSpec{
		Layer: "micro", App: "SRADv1", Kernel: "K4", Structure: "RF",
		Runs: 60, Seed: 7,
	}
	tally, _ := runFleet(t, source, spec, 2)

	fn, err := source(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Run(campaign.Options{Runs: spec.Runs, Seed: spec.Seed}, fn)
	if tally != want {
		t.Errorf("fleet SRADv1 tally %+v != in-process %+v", tally, want)
	}
}

// TestFleetFaultModelParity: the fleet path is model-agnostic — a two-worker
// campaign under each non-default fault model (permanent stuck-at on RF,
// forced control latch on the SIMT stack) tallies bit-identically to the
// in-process campaign over the same study source. Both workers and the
// comparison run share one Study, so golden-run memoisation mirrors a warm
// coordinator.
func TestFleetFaultModelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator campaign")
	}
	study := gpurel.NewStudy(0, 1)
	source := service.NewStudySource(study)
	specs := []service.JobSpec{
		{Layer: "micro", App: "VA", Kernel: "K1", Structure: "RF",
			Runs: 30, Seed: 7,
			Fault: &service.FaultSpec{Model: "stuck", Stuck: intPtr(1)}},
		{Layer: "micro", App: "VA", Kernel: "K1", Structure: "STACK",
			Runs: 30, Seed: 7,
			Fault: &service.FaultSpec{Model: "control", Stuck: intPtr(0)}},
	}
	for _, spec := range specs {
		tally, _ := runFleet(t, source, spec, 2)
		fn, err := source(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := campaign.Run(campaign.Options{Runs: spec.Runs, Seed: spec.Seed}, fn)
		if tally != want {
			t.Errorf("fleet %s/%s tally %+v != in-process %+v",
				spec.Structure, spec.Fault.Label(), tally, want)
		}
	}
}

func intPtr(v int) *int { return &v }

// TestFleetGracefulDegradation: a coordinator with lease endpoints mounted
// but no workers joined executes everything in-process, exactly like the
// pre-fleet daemon.
func TestFleetGracefulDegradation(t *testing.T) {
	const runs, seed = 700, 3
	sched, coord, _ := harness(t,
		service.Config{Source: synthSource(0), ChunkSize: 64},
		fleet.CoordinatorConfig{},
	)
	st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, sched, st.ID, 30*time.Second)
	want := campaign.Run(campaign.Options{Runs: runs, Seed: seed}, func(run int, rng *rand.Rand) faults.Result {
		return outcome(rng)
	})
	if final.State != service.StateDone || final.Tally != want {
		t.Fatalf("local-only job %+v, want tally %+v", final, want)
	}
	if stats := coord.Stats(); stats.Granted != 0 {
		t.Errorf("leases granted with no workers: %+v", stats)
	}
}

// TestFleetAdviseMatchesGpuharden: an advise job is an ordinary job on the
// fleet. On a coordinator with local execution disabled (gpureld -no-local)
// and two workers — each with its own study, like two processes — the
// advise's child campaigns all run through leases, and its plan and
// verification are byte-identical to the in-process advisor's (gpuharden's
// golden output for the same app, budget, runs and seed).
func TestFleetAdviseMatchesGpuharden(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator campaigns")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "gpuharden", "testdata", "NW_budget0.002_n60.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden advisor.State
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	sched, coord, srv := harness(t,
		service.Config{Source: synthSource(0), DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseRuns: 30, LeaseTTL: 30 * time.Second},
	)
	var workers []*fleet.Worker
	for i := 0; i < 2; i++ {
		w, _ := startWorker(t, fleet.WorkerConfig{
			Client: client.New(srv.URL), Source: service.NewStudySource(gpurel.NewStudy(0, 1)),
			Chunk: 15, Workers: 1, Poll: time.Millisecond, Backoff: testBackoff,
		})
		workers = append(workers, w)
	}

	var spec service.JobSpec
	if err := json.Unmarshal([]byte(`{"advise":{"app":"NW","budget":0.002},"runs":60,"seed":1}`), &spec); err != nil {
		t.Fatal(err)
	}
	st, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, sched, st.ID, 5*time.Minute)
	if final.State != service.StateDone || final.Advise == nil {
		t.Fatalf("fleet advise = %+v", final)
	}
	for name, pair := range map[string][2]any{
		"plan":         {final.Advise.Plan, golden.Plan},
		"verification": {final.Advise.Verification, golden.Verification},
	} {
		got, _ := json.Marshal(pair[0])
		want, _ := json.Marshal(pair[1])
		if string(got) != string(want) {
			t.Errorf("fleet advise %s differs from gpuharden's:\n%s\n%s", name, got, want)
		}
	}

	// Every child tally arrived through a lease: the workers executed
	// exactly the runs the children merged, no lane ran any.
	var childRuns, leased int64
	children := 0
	for _, k := range sched.List() {
		if k.ID == st.ID {
			continue
		}
		children++
		if !strings.HasPrefix(k.ID, st.ID+".") || k.State != service.StateDone || k.Tally.N != spec.Runs {
			t.Errorf("child %s: %s, %d runs", k.ID, k.State, k.Tally.N)
		}
		childRuns += int64(k.Tally.N)
	}
	for _, w := range workers {
		leased += w.Runs()
	}
	if children == 0 || leased != childRuns || coord.Stats().Reported == 0 {
		t.Errorf("%d children merged %d runs; workers executed %d (lease stats %+v)", children, childRuns, leased, coord.Stats())
	}
}
