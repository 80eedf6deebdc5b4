// Crash-recovery tests for the journaled coordinator: a coordinator killed
// mid-campaign (no drain, no final flush beyond the periodic one) restarts
// from its journal with the lease ledger, worker registry, and counters
// intact, and the resumed campaign — fixed and adaptive jobs alike — ends
// with tallies bit-identical to an uninterrupted single-node run.
package fleet_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// lowFR is the adaptive test experiment: a fault rate low enough that the
// early-stopping rule fires well before the run budget.
func lowFR(run int, rng *rand.Rand) faults.Result {
	if rng.Float64() < 0.02 {
		return faults.Result{Outcome: faults.SDC}
	}
	return faults.Result{Outcome: faults.Masked}
}

// killResumeSource dispatches per app: "fixed" jobs use the shared synthetic
// outcome, "adaptive" jobs the low-fault-rate experiment.
func killResumeSource(perRun time.Duration) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if perRun > 0 {
				time.Sleep(perRun)
			}
			if spec.App == "adaptive" {
				return lowFR(run, rng)
			}
			return outcome(rng)
		}, nil
	}
}

// The kill-and-resume campaign: one fixed job carrying every nested spec
// group, one adaptive early-stopping job, two tenants.
const (
	krFixedRuns, krFixedSeed       = 1500, 11
	krAdRuns, krAdSeed, krAdMargin = 3000, 42, 0.0235
	krSchedFile, krFleetFile       = "sched.ckpt.json", "fleet.journal.json"
)

func killResumeConfigs(dir string, perRun time.Duration) (service.Config, fleet.CoordinatorConfig) {
	return service.Config{
			Source:             killResumeSource(perRun),
			DisableLocalExec:   true,
			CheckpointPath:     filepath.Join(dir, krSchedFile),
			CheckpointInterval: 10 * time.Millisecond,
		}, fleet.CoordinatorConfig{
			LeaseRuns: 200, LeaseTTL: 400 * time.Millisecond, Sweep: 20 * time.Millisecond,
			JournalPath: filepath.Join(dir, krFleetFile), FlushInterval: 10 * time.Millisecond,
		}
}

// killMidCampaign drives the campaign over two workers and crashes the
// coordinator mid-flight — workers severed (no drain, no lease return), no
// final flush — leaving the scheduler checkpoint and the fleet journal in
// dir.
func killMidCampaign(t *testing.T, dir string) {
	schedCfg, coordCfg := killResumeConfigs(dir, 300*time.Microsecond)
	sched1, err := service.NewScheduler(schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := fleet.NewCoordinator(sched1, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(service.NewServer(sched1).Handler(coord1.Mount))

	fixed, err := sched1.Submit(service.JobSpec{
		Layer: "micro", App: "fixed", Kernel: "K1", Runs: krFixedRuns, Seed: krFixedSeed,
		Tenant:     "alice",
		Checkpoint: &service.SnapshotSpec{Stride: -1, Converge: true},
		Fault:      &service.FaultSpec{Model: "stuck", Stuck: faultmodel.Ptr(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	adapt, err := sched1.Submit(service.JobSpec{
		Layer: "micro", App: "adaptive", Kernel: "K1", Runs: krAdRuns, Seed: krAdSeed,
		Tenant: "bob", Priority: 2,
		Sampling: &service.SamplingSpec{Margin99: krAdMargin},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Once both jobs have made real progress, the crash happens inside a
	// run, so the worker executing it holds an open lease whatever the
	// other one is doing: the coordinator's loops stop, and the stand-in
	// for the last periodic flush journals that lease.
	var kill sync.Once
	killed := make(chan struct{})
	source := killResumeSource(300 * time.Microsecond)
	crashing := func(spec service.JobSpec) (campaign.Experiment, error) {
		fn, err := source(spec)
		if err != nil {
			return nil, err
		}
		return func(run int, rng *rand.Rand) faults.Result {
			f, _ := sched1.Get(fixed.ID)
			a, _ := sched1.Get(adapt.ID)
			if f.Done >= 200 && a.Done >= 200 {
				kill.Do(func() {
					coord1.Kill()
					if err := coord1.Flush(); err != nil {
						t.Error(err)
					}
					close(killed)
				})
			}
			return fn(run, rng)
		}, nil
	}
	for i, id := range []string{"ka", "kb"} {
		startWorker(t, fleet.WorkerConfig{
			ID: id, Client: client.New(srv1.URL), Source: crashing,
			Chunk: []int{40, 70}[i], Workers: 1, Poll: time.Millisecond, Backoff: testBackoff,
		})
	}

	select {
	case <-killed:
	case <-time.After(20 * time.Second):
		f, _ := sched1.Get(fixed.ID)
		a, _ := sched1.Get(adapt.ID)
		t.Fatalf("no kill after 200 runs of each job: fixed %+v adaptive %+v", f, a)
	}
	srv1.Close() // workers lose the coordinator mid-lease
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}
}

// resumeAndVerify restarts both halves from the journals in dir, lets two
// fresh workers finish the campaign — the dead workers' reclaimed leases
// expire and requeue; everything re-executes deterministically — and checks
// both tallies against uninterrupted local runs.
func resumeAndVerify(t *testing.T, dir string) {
	// The journal must hold outstanding leases and both workers.
	raw, err := os.ReadFile(filepath.Join(dir, krFleetFile))
	if err != nil {
		t.Fatal(err)
	}
	var jf struct {
		Version int `json:"version"`
		Leases  []struct {
			JobID string `json:"job_id"`
		} `json:"leases"`
		Workers []struct {
			Name string `json:"name"`
		} `json:"workers"`
		Stats service.LeaseStats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &jf); err != nil {
		t.Fatalf("journal not valid JSON: %v\n%s", err, raw)
	}
	if jf.Version != 1 || len(jf.Workers) != 2 || jf.Stats.Granted == 0 {
		t.Fatalf("journal implausible: %+v", jf)
	}
	if len(jf.Leases) == 0 {
		t.Fatal("journal holds no outstanding leases; the kill missed the mid-lease window")
	}

	schedCfg, coordCfg := killResumeConfigs(dir, 0)
	sched2, err := service.NewScheduler(schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched2.Close() })
	coord2, err := fleet.NewCoordinator(sched2, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord2.Close() })
	srv2 := httptest.NewServer(service.NewServer(sched2).Handler(coord2.Mount))
	t.Cleanup(srv2.Close)

	// Restored state: both jobs with every spec group intact, counters
	// carried over, both workers remembered, the journaled leases re-pinned
	// as open.
	var fixedID, adaptID string
	for _, st := range sched2.List() {
		switch st.Spec.App {
		case "fixed":
			fixedID = st.ID
			if c, f := st.Spec.Checkpoint, st.Spec.Fault; c == nil || c.Stride != -1 || !c.Converge ||
				f == nil || f.Model != "stuck" || f.Stuck == nil || *f.Stuck != 0 {
				t.Errorf("fixed job's nested groups not restored: %+v", st.Spec)
			}
		case "adaptive":
			adaptID = st.ID
			if sm := st.Spec.Sampling; sm == nil || sm.Margin99 != krAdMargin {
				t.Errorf("adaptive job's sampling group not restored: %+v", st.Spec)
			}
		}
	}
	if fixedID == "" || adaptID == "" {
		t.Fatalf("checkpoint did not restore both jobs: %+v", sched2.List())
	}
	if st := coord2.Stats(); st.Granted < jf.Stats.Granted {
		t.Errorf("restored Granted %d < journaled %d", st.Granted, jf.Stats.Granted)
	}
	fs := coord2.FleetStatus()
	if len(fs.Workers) != 2 || !fs.Journaled {
		t.Errorf("restored fleet status %+v", fs)
	}
	if fs.OpenLeases != len(jf.Leases) {
		t.Errorf("restored open leases %d, journal had %d", fs.OpenLeases, len(jf.Leases))
	}

	for _, id := range []string{"kc", "kd"} {
		startWorker(t, fleet.WorkerConfig{
			ID: id, Client: client.New(srv2.URL), Source: killResumeSource(0),
			Chunk: 50, Workers: 1, Poll: time.Millisecond, Backoff: testBackoff,
		})
	}

	finalFixed := waitTerminal(t, sched2, fixedID, 60*time.Second)
	finalAdapt := waitTerminal(t, sched2, adaptID, 60*time.Second)

	wantFixed := campaign.Run(campaign.Options{Runs: krFixedRuns, Seed: krFixedSeed},
		func(run int, rng *rand.Rand) faults.Result { return outcome(rng) })
	if finalFixed.State != service.StateDone || finalFixed.Tally != wantFixed {
		t.Errorf("fixed job after kill+resume %+v, want tally %+v", finalFixed, wantFixed)
	}

	wantAdapt := adaptive.Run(campaign.Options{Runs: krAdRuns, Seed: krAdSeed}, adaptive.Policy{Margin: krAdMargin}, lowFR)
	if !wantAdapt.EarlyStopped {
		t.Fatal("test premise broken: local adaptive run did not stop early")
	}
	if finalAdapt.State != service.StateDone || finalAdapt.Tally != wantAdapt.Tally || finalAdapt.Done != wantAdapt.Tally.N {
		t.Errorf("adaptive job after kill+resume %+v, want stop at n=%d tally %+v",
			finalAdapt, wantAdapt.Tally.N, wantAdapt.Tally)
	}
	if !finalAdapt.EarlyStopped {
		t.Errorf("adaptive job lost its early stop: %+v", finalAdapt)
	}
}

// TestCoordinatorKillResumeBitIdentical is the tentpole acceptance test:
// a journaled coordinator driving a two-tenant campaign (one fixed job, one
// adaptive early-stopping job) over two workers is killed mid-flight — no
// drain, workers severed — and a fresh coordinator restored from the same
// journals finishes both jobs with tallies bit-identical to uninterrupted
// local runs. The second input is the same crash as the commit before the
// flat wire spellings were removed left it on disk (testdata/pre-removal,
// written by killMidCampaign at that commit): old journals must keep
// loading.
func TestCoordinatorKillResumeBitIdentical(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		dir := t.TempDir()
		killMidCampaign(t, dir)
		resumeAndVerify(t, dir)
	})
	t.Run("pre-removal journals", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{krSchedFile, krFleetFile} {
			data, err := os.ReadFile(filepath.Join("testdata", "pre-removal", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumeAndVerify(t, dir)
	})
}

// TestJournalDropsSettledJobs: restoring a journal whose leases point at
// jobs the scheduler no longer tracks (or has finished) drops those leases
// instead of resurrecting them.
func TestJournalDropsSettledJobs(t *testing.T) {
	dir := t.TempDir()
	fleetCkpt := filepath.Join(dir, "fleet.journal.json")

	// Hand-craft a journal holding one lease for a job that will not exist.
	jf := map[string]any{
		"version":    1,
		"saved_unix": 1,
		"leases": []map[string]any{
			{"id": "l000000000001", "job_id": "ghost", "worker": "w1", "from": 0, "to": 100, "deadline_unix": 1},
		},
		"workers": []map[string]any{
			{"name": "w1", "caps": map[string]any{}, "registered": true},
		},
		"stats": map[string]any{"granted": 7},
	}
	raw, err := json.MarshalIndent(jf, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fleetCkpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{JournalPath: fleetCkpt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	fs := coord.FleetStatus()
	if fs.OpenLeases != 0 {
		t.Errorf("ghost lease restored: %+v", fs)
	}
	if len(fs.Workers) != 1 || fs.Workers[0].Name != "w1" || !fs.Workers[0].Registered {
		t.Errorf("registry not restored: %+v", fs.Workers)
	}
	if fs.Leases.Granted != 7 {
		t.Errorf("stats not restored: %+v", fs.Leases)
	}
}

// TestJournalVersionMismatch: an incompatible journal fails loudly instead
// of restoring garbage.
func TestJournalVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal.json")
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	if _, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{JournalPath: path}); err == nil {
		t.Fatal("version-99 journal accepted")
	}
}

// TestCloseKeepsJournaledLeases: a journaled coordinator's graceful Close
// leaves open leases in the journal (their workers may outlive the process)
// instead of requeueing them, and the next coordinator restores them.
func TestCloseKeepsJournaledLeases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal.json")
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		JournalPath: path, LeaseTTL: 30 * time.Second, LeaseRuns: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	t.Cleanup(srv.Close)

	if _, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 300, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL)
	ls, ok, err := c.Lease(context.Background(), service.LeaseRequest{Worker: "wkeep"})
	if err != nil || !ok {
		t.Fatalf("lease: %v ok=%v", err, ok)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	coord2, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		JournalPath: path, LeaseTTL: 30 * time.Second, LeaseRuns: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord2.Close() })
	fs := coord2.FleetStatus()
	if fs.OpenLeases != 1 {
		t.Fatalf("journaled lease lost across Close/restore: %+v", fs)
	}
	if fs.Leases.Returned != 0 {
		t.Errorf("journaled Close requeued the lease: %+v", fs.Leases)
	}
	_ = ls
}
