// End-to-end tests of the campaign service: submit over HTTP, stream NDJSON
// progress, kill the server mid-job, restart from the checkpoint journal,
// and prove the resumed job's final tally is bit-identical to an
// uninterrupted campaign.Run with the same seed.
package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/service"
)

// outcome is the synthetic experiment's deterministic classification — the
// same distribution the campaign package's own tests use.
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

// fakeSource returns a synthetic experiment source; perRun throttles each
// injection so tests can reliably interrupt a job mid-flight.
func fakeSource(perRun time.Duration) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if perRun > 0 {
				time.Sleep(perRun)
			}
			return outcome(rng)
		}, nil
	}
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Scheduler, *httptest.Server) {
	t.Helper()
	sched, err := service.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(sched).Handler())
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { sched.Close() })
	return sched, srv
}

// checkEventType fails the test on an event type outside the stream contract
// (service.Event, docs/service.md): "status", "running", "progress" and the
// terminal state names — "running" reaches only a stream that attached while
// the job was still queued, which under load is any stream.
func checkEventType(t *testing.T, ev service.Event) {
	t.Helper()
	switch ev.Type {
	case "status", "running", "progress", "done", "failed", "canceled":
	default:
		t.Errorf("unexpected event type %q", ev.Type)
	}
}

// TestStreamOfQueuedJob attaches the event stream to a job that is provably
// still queued — the only lane is held by another job whose first run blocks
// until the stream has delivered its snapshot — and requires the documented
// order: status (queued), running, progress per chunk but the last, done.
func TestStreamOfQueuedJob(t *testing.T) {
	release := make(chan struct{})
	_, srv := newTestServer(t, service.Config{
		Source: func(service.JobSpec) (campaign.Experiment, error) {
			return func(run int, rng *rand.Rand) faults.Result {
				<-release
				return outcome(rng)
			}, nil
		},
		Shards:          1,
		ChunkSize:       50,
		WorkersPerShard: 2,
	})
	c := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	holder, err := c.SubmitJob(ctx, service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.SubmitJob(ctx, service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	var types []string
	if err := c.WatchEvents(ctx, queued.ID, func(ev service.Event) error {
		checkEventType(t, ev)
		if len(types) == 0 {
			if ev.Type != "status" || ev.Job.State != service.StateQueued {
				t.Errorf("first event = %q in state %q, want the status snapshot of a queued job", ev.Type, ev.Job.State)
			}
			close(release) // the stream is attached: let the lane go
		}
		if ev.Type == "running" && (ev.Job.State != service.StateRunning || ev.Job.Done != 0) {
			t.Errorf("running event carries state %q, done %d", ev.Job.State, ev.Job.Done)
		}
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Three chunks: the last one's merge is reported by the terminal event.
	want := []string{"status", "running", "progress", "progress", "done"}
	if strings.Join(types, " ") != strings.Join(want, " ") {
		t.Errorf("event order = %v, want %v", types, want)
	}
	// WaitJob rides the same stream and must not trip over "running" either.
	if st, err := c.WaitJob(ctx, holder.ID); err != nil || st.State != service.StateDone {
		t.Errorf("holder job: state %q, err %v", st.State, err)
	}
}

// TestSubmitStreamMetrics drives one job through the full happy path over
// HTTP: submit, NDJSON event stream to completion, status, metrics.
func TestSubmitStreamMetrics(t *testing.T) {
	// Throttle each injection just enough that the event stream reliably
	// attaches while the job is still in flight.
	_, srv := newTestServer(t, service.Config{
		Source:          fakeSource(500 * time.Microsecond),
		ChunkSize:       64,
		WorkersPerShard: 4,
	})
	c := client.New(srv.URL)
	ctx := context.Background()

	spec := service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 500, Seed: 42}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 500 {
		t.Fatalf("submit status = %+v", st)
	}

	var sawProgress bool
	var last service.JobStatus
	if err := c.WatchEvents(ctx, st.ID, func(ev service.Event) error {
		checkEventType(t, ev)
		if ev.Type == "progress" {
			sawProgress = true
			if ev.Job.Done == 0 || ev.Job.Tally.N != ev.Job.Done {
				t.Errorf("progress event inconsistent: %+v", ev.Job)
			}
			if ev.Job.Done < ev.Job.Total && ev.Job.ErrMargin99 == 0 && ev.Job.Tally.FR() > 0 {
				t.Errorf("live error margin missing: %+v", ev.Job)
			}
		}
		last = ev.Job
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawProgress {
		t.Error("no progress events seen")
	}
	if last.State != service.StateDone || last.Done != 500 {
		t.Fatalf("final event = %+v", last)
	}

	want := campaign.Run(campaign.Options{Runs: 500, Seed: 42}, func(run int, rng *rand.Rand) faults.Result {
		return outcome(rng)
	})
	if last.Tally != want {
		t.Errorf("served tally %+v != local campaign.Run %+v", last.Tally, want)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"gpureld_jobs_total{event=\"submitted\"} 1",
		"gpureld_jobs_total{event=\"done\"} 1",
		"gpureld_jobs{state=\"done\"} 1",
		"gpureld_injections_total 500",
		"gpureld_outcomes_total{outcome=\"sdc\"}",
		"gpureld_injections_per_second",
	} {
		if !strings.Contains(metrics, needle) {
			t.Errorf("metrics missing %q in:\n%s", needle, metrics)
		}
	}
}

// TestKillAndResume is the acceptance test: a job interrupted by a server
// shutdown resumes from its checkpoint in a fresh scheduler/server pair and
// finishes with a tally bit-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	const runs, seed = 400, 77

	cfg := service.Config{
		Source:             fakeSource(500 * time.Microsecond), // ~200ms total: interruptible
		ChunkSize:          16,
		WorkersPerShard:    2,
		CheckpointPath:     ckpt,
		CheckpointInterval: 20 * time.Millisecond,
	}
	sched1, err := service.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(service.NewServer(sched1).Handler())
	c1 := client.New(srv1.URL)
	ctx := context.Background()

	spec := service.JobSpec{Layer: "soft", App: "fake", Kernel: "K2", Mode: "SVF", Runs: runs, Seed: seed}
	st, err := c1.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Stream until the job is solidly mid-flight, then kill the server.
	errEnough := errors.New("enough progress")
	var mid service.JobStatus
	err = c1.WatchEvents(ctx, st.ID, func(ev service.Event) error {
		if ev.Type == "progress" && ev.Job.Done >= 64 {
			mid = ev.Job
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("stream ended without reaching mid-job: %v (job may be too fast for this test)", err)
	}
	if mid.Done == 0 || mid.Done >= runs {
		t.Fatalf("not mid-job: %+v", mid)
	}
	if err := sched1.Close(); err != nil { // drain in-flight chunk + final flush
		t.Fatal(err)
	}
	srv1.Close()

	// The journal must hold a resumable (non-terminal) job with real
	// progress recorded as run-ranges.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var journal struct {
		Version int `json:"version"`
		Jobs    []struct {
			ID    string           `json:"id"`
			State service.JobState `json:"state"`
			Done  []service.Range  `json:"done_ranges"`
			Tally campaign.Tally   `json:"tally"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &journal); err != nil {
		t.Fatalf("checkpoint not valid JSON: %v\n%s", err, raw)
	}
	if len(journal.Jobs) != 1 || journal.Jobs[0].ID != st.ID {
		t.Fatalf("journal = %+v", journal)
	}
	jj := journal.Jobs[0]
	if jj.State != service.StateQueued {
		t.Errorf("interrupted job journaled as %q, want %q", jj.State, service.StateQueued)
	}
	if len(jj.Done) == 0 || jj.Tally.N == 0 || jj.Tally.N >= runs {
		t.Errorf("journaled progress implausible: ranges=%v tally.N=%d", jj.Done, jj.Tally.N)
	}

	// Restart: a fresh scheduler on the same journal resumes and finishes.
	cfg.Source = fakeSource(0)
	sched2, err := service.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Close()
	srv2 := httptest.NewServer(service.NewServer(sched2).Handler())
	defer srv2.Close()
	c2 := client.New(srv2.URL)

	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := c2.WaitJob(waitCtx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Done != runs {
		t.Fatalf("resumed job = %+v", final)
	}

	want := campaign.Run(campaign.Options{Runs: runs, Seed: seed}, func(run int, rng *rand.Rand) faults.Result {
		return outcome(rng)
	})
	if final.Tally != want {
		t.Errorf("resumed tally %+v != uninterrupted %+v", final.Tally, want)
	}

	// The second process only executed the complement of the journaled
	// ranges — the resume really resumed.
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "gpureld_jobs_total{event=\"resumed\"} 1") {
		t.Errorf("metrics missing resumed counter:\n%s", m)
	}
	var resumedInjections int
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "gpureld_injections_total ") {
			if _, err := fmtSscan(line, &resumedInjections); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if got, wantMax := resumedInjections, runs-jj.Tally.N; got != wantMax {
		t.Errorf("second process executed %d injections, want exactly the %d missing", got, wantMax)
	}
}

func fmtSscan(line string, dst *int) (int, error) {
	fields := strings.Fields(line)
	var err error
	*dst, err = atoi(fields[len(fields)-1])
	return *dst, err
}

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errors.New("not a number: " + s)
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

// TestCancelAndDeadline covers the remaining lifecycle edges.
func TestCancelAndDeadline(t *testing.T) {
	_, srv := newTestServer(t, service.Config{
		Source:    fakeSource(300 * time.Microsecond),
		ChunkSize: 8,
	})
	c := client.New(srv.URL)
	ctx := context.Background()

	// Cancel mid-flight.
	st, err := c.SubmitJob(ctx, service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateCanceled {
		t.Errorf("state after cancel = %q", final.State)
	}
	if final.Done >= final.Total {
		t.Errorf("canceled job ran to completion: %+v", final)
	}

	// Deadline exceeded.
	st2, err := c.SubmitJob(ctx, service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1", Runs: 100000, Seed: 1, Deadline: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.WaitJob(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != service.StateFailed || !strings.Contains(final2.Error, "deadline") {
		t.Errorf("deadline job = %+v", final2)
	}

	// Bad specs are rejected at submit time.
	for _, bad := range []service.JobSpec{
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: 0, Seed: 1},
		{Layer: "nope", App: "fake", Kernel: "K1", Runs: 10},
		{Layer: "micro", App: "", Kernel: "K1", Runs: 10},
		{Layer: "micro", App: "fake", Kernel: "K1", Runs: 10, Structure: "L9"},
		{Layer: "soft", App: "fake", Kernel: "K1", Runs: 10, Mode: "AVF"},
	} {
		if _, err := c.SubmitJob(ctx, bad); err == nil {
			t.Errorf("spec %+v accepted, want rejection", bad)
		}
	}
	if _, err := c.GetJob(ctx, "jdeadbeef0000"); err == nil {
		t.Error("Get on unknown job succeeded")
	}
}

// TestSchedulerWorkerCountInvariance: the served tally must not depend on
// the service's parallelism knobs (same invariant campaign.Run holds).
func TestSchedulerWorkerCountInvariance(t *testing.T) {
	run := func(shards, workers, chunk int) campaign.Tally {
		sched, err := service.NewScheduler(service.Config{
			Source: fakeSource(0), Shards: shards, WorkersPerShard: workers, ChunkSize: chunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()
		st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 700, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for {
			got, _ := sched.Get(st.ID)
			if got.State.Terminal() {
				if got.State != service.StateDone {
					t.Fatalf("job failed: %+v", got)
				}
				return got.Tally
			}
			time.Sleep(time.Millisecond)
		}
	}
	a := run(1, 1, 700)
	b := run(4, 8, 13)
	if a != b {
		t.Errorf("tally depends on scheduling: %+v vs %+v", a, b)
	}
}

// TestRealStudyParity runs a genuine (small) microarchitecture campaign
// point through the service and checks it matches Study.MicroTally computed
// locally — including the PointSeed derivation both sides share — and then
// repeats the comparison through the Study.RunPoint client hook, the path
// `avfsvf -daemon` uses.
func TestRealStudyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator campaign")
	}
	const runs, baseSeed = 30, 1

	local := gpurel.NewStudy(runs, baseSeed)
	want, _, err := local.MicroTally("VA", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}

	_, srv := newTestServer(t, service.Config{
		Source:    service.NewStudySource(gpurel.NewStudy(0, baseSeed)),
		ChunkSize: 7,
	})
	c := client.New(srv.URL)
	ctx := context.Background()

	point := gpurel.PointSpec{Layer: gpurel.LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF}
	spec := service.SpecForPoint(point, campaign.Options{Runs: runs, Seed: gpurel.PointSeed(baseSeed, point)})
	final, err := c.RunJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Tally != want {
		t.Errorf("daemon tally %+v (state %s) != local MicroTally %+v", final.Tally, final.State, want)
	}

	// Same comparison through the RunPoint hook (fresh study so nothing is
	// memoised locally).
	remote := gpurel.NewStudy(runs, baseSeed)
	remote.RunPoint = c.RunPoint(ctx)
	got, _, err := remote.MicroTally("VA", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunPoint hook tally %+v != local %+v", got, want)
	}
}

// TestPreAdviseJournalLoads: a scheduler journal written before advise jobs
// became scheduler jobs (testdata/sched_journal_v1.json: a done job, one
// parked mid-run by a drain, and a canceled one) loads with every job's
// state, spec, prefix and tally unchanged, and the parked job then finishes
// to the tally of an uninterrupted campaign.
func TestPreAdviseJournalLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sched_journal_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Jobs []struct {
			ID    string           `json:"id"`
			Spec  service.JobSpec  `json:"spec"`
			State service.JobState `json:"state"`
			Done  []service.Range  `json:"done_ranges"`
			Tally campaign.Tally   `json:"tally"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	load := func(local bool) *service.Scheduler {
		path := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		sched, err := service.NewScheduler(service.Config{
			Source: fakeSource(0), DisableLocalExec: !local, CheckpointPath: path, CheckpointInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sched.Close() })
		return sched
	}

	list := load(false).List()
	if len(list) != len(old.Jobs) {
		t.Fatalf("loaded %d jobs, journal holds %d", len(list), len(old.Jobs))
	}
	var parked string
	for i, jc := range old.Jobs {
		st := list[i]
		if st.ID != jc.ID || !reflect.DeepEqual(st.Spec, jc.Spec) || st.Tally != jc.Tally ||
			!reflect.DeepEqual(st.DoneRanges, jc.Done) || st.Done != jc.Tally.N {
			t.Errorf("job %d loaded as %+v, journaled %+v", i, st, jc)
		}
		// A parked job re-enters the table queued (and flips to running
		// once its lane picks it up); terminal ones stay as they were.
		if jc.State.Terminal() && st.State != jc.State || !jc.State.Terminal() && st.State.Terminal() {
			t.Errorf("job %s loaded %s, journaled %s", jc.ID, st.State, jc.State)
		}
		if jc.State == service.StateQueued && jc.Tally.N > 0 {
			parked = jc.ID
		}
	}
	if old.Jobs[0].State != service.StateDone || old.Jobs[2].State != service.StateCanceled || parked != old.Jobs[1].ID {
		t.Fatalf("fixture lost its done, parked and canceled jobs: %+v", old.Jobs)
	}

	final := waitJob(t, load(true), parked)
	spec := old.Jobs[1].Spec
	if want := synthTally(campaign.Options{Runs: spec.Runs, Seed: spec.Seed}); final.State != service.StateDone || final.Tally != want {
		t.Errorf("resumed parked job %+v, want tally %+v", final, want)
	}
}
