// Adaptive-job tests: early stopping through the scheduler, bit-identical
// checkpoint/resume of an interrupted adaptive job, submission validation
// over raw HTTP, and the sampling-efficiency metrics.
package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/service"
)

// lowFR is a synthetic low-failure-rate experiment (p = 0.02), the regime
// where adaptive stopping saves the most over the fixed n=3000 design.
func lowFR(run int, rng *rand.Rand) faults.Result {
	if rng.Float64() < 0.02 {
		return faults.Result{Outcome: faults.SDC}
	}
	return faults.Result{Outcome: faults.Masked}
}

func lowFRSource(perRun time.Duration) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if perRun > 0 {
				time.Sleep(perRun)
			}
			return lowFR(run, rng)
		}, nil
	}
}

// TestAdaptiveJobEarlyStops: an adaptive job finishes as done before its run
// budget, at a batch boundary, with the exact tally the local adaptive
// engine computes for the same policy and seed — and the savings show up in
// the job status and /metrics.
func TestAdaptiveJobEarlyStops(t *testing.T) {
	const runs, seed, margin = 3000, 42, 0.0235
	_, srv := newTestServer(t, service.Config{
		Source:    lowFRSource(0),
		ChunkSize: 64, // deliberately not a multiple of the batch size
	})
	c := client.New(srv.URL)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1",
		Runs: runs, Seed: seed, Sampling: &service.SamplingSpec{Margin99: margin},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("adaptive job ended %q: %+v", final.State, final)
	}

	want := adaptive.Run(
		campaign.Options{Runs: runs, Seed: seed},
		adaptive.Policy{Margin: margin},
		lowFR,
	)
	if !want.EarlyStopped {
		t.Fatal("test premise broken: local adaptive run did not stop early")
	}
	if final.Tally != want.Tally || final.Done != want.Tally.N {
		t.Errorf("served adaptive tally %+v (done %d) != local %+v", final.Tally, final.Done, want.Tally)
	}
	if !final.EarlyStopped || final.RunsSaved != runs-want.Tally.N {
		t.Errorf("savings not reported: early=%v saved=%d, want saved=%d",
			final.EarlyStopped, final.RunsSaved, runs-want.Tally.N)
	}
	if final.Done%adaptive.DefaultBatch != 0 {
		t.Errorf("stopped at n=%d, not a batch boundary", final.Done)
	}
	if final.Margin99 > margin || final.Margin99 <= 0 {
		t.Errorf("reported Wilson margin %.4f, want in (0, %.4f]", final.Margin99, margin)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	needle := fmt.Sprintf("gpureld_adaptive_runs_saved_total %d", runs-want.Tally.N)
	if !strings.Contains(m, needle) {
		t.Errorf("metrics missing %q in:\n%s", needle, m)
	}
}

// TestAdaptiveKillAndResumeBitIdentity is the determinism acceptance test:
// an adaptive job interrupted mid-flight and resumed in a fresh process
// stops at the same run count with a bit-identical tally as the local,
// uninterrupted adaptive engine.
func TestAdaptiveKillAndResumeBitIdentity(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	const runs, seed, margin = 3000, 77, 0.025

	cfg := service.Config{
		Source:             fakeSource(300 * time.Microsecond),
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

	spec := service.JobSpec{
		Layer: "soft", App: "fake", Kernel: "K2", Mode: "SVF",
		Runs: runs, Seed: seed, Sampling: &service.SamplingSpec{Margin99: margin},
	}
	st, err := c1.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	errEnough := errors.New("enough progress")
	err = c1.WatchEvents(ctx, st.ID, func(ev service.Event) error {
		if ev.Type == "progress" && ev.Job.Done >= 150 {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("stream ended before mid-job: %v", err)
	}
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

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

	want := adaptive.Run(
		campaign.Options{Runs: runs, Seed: seed},
		adaptive.Policy{Margin: margin},
		func(run int, rng *rand.Rand) faults.Result { return outcome(rng) },
	)
	if final.State != service.StateDone {
		t.Fatalf("resumed adaptive job ended %q: %+v", final.State, final)
	}
	if final.Tally != want.Tally || final.Done != want.Tally.N {
		t.Errorf("resumed adaptive tally %+v (done %d) != uninterrupted %+v (n %d)",
			final.Tally, final.Done, want.Tally, want.Tally.N)
	}
	if final.EarlyStopped != want.EarlyStopped {
		t.Errorf("EarlyStopped=%v after resume, want %v", final.EarlyStopped, want.EarlyStopped)
	}
	if want.EarlyStopped && final.Done >= runs {
		t.Errorf("resumed job ran the full budget despite the margin target")
	}
}

// TestSubmitHTTPValidation pins the HTTP status codes of malformed
// submissions — most importantly runs <= 0, which must be a 400, never a
// silently-zero-margin job.
func TestSubmitHTTPValidation(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Source: fakeSource(0)})

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	bad := []string{
		`{"layer":"micro","app":"fake","kernel":"K1","runs":0,"seed":1}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":-5,"seed":1}`,
		`{"layer":"micro","app":"fake","kernel":"K1","seed":1}`, // runs omitted = 0
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"margin99":1.5}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"margin99":-0.1}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"batch":-2}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"bogus_field":1}`,
		// The same validation applies through the nested v1 groups…
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"sampling":{"margin99":1.5}}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"sampling":{"batch":-2}}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"sampling":{"bogus":1}}`,
		// …and the flat pre-v1 spellings are unknown fields, valid values or
		// not, alone or beside the nested group.
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"seed":1,"margin99":0.05,"batch":5,"prune":true}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"snap_stride":-1,"converge":true}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"margin99":0.05,"sampling":{"margin99":0.05}}`,
		`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"converge":true,"checkpoint":{"converge":true}}`,
	}
	for _, body := range bad {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("POST %s -> %d, want 400", body, code)
		}
	}
	if code := post(`{"layer":"micro","app":"fake","kernel":"K1","runs":10,"seed":1,"sampling":{"margin99":0.05,"batch":5,"prune":true},"checkpoint":{"stride":-1,"converge":true}}`); code != http.StatusAccepted {
		t.Errorf("valid nested adaptive spec -> %d, want 202", code)
	}
}

// TestMetricsExportCounters: the shared adaptive.Counters surface as
// prune-hit and simulated-run counters in the Prometheus exposition.
func TestMetricsExportCounters(t *testing.T) {
	counters := &adaptive.Counters{}
	counters.Pruned.Add(7)
	counters.Simulated.Add(13)
	_, srv := newTestServer(t, service.Config{Source: fakeSource(0), Counters: counters})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"gpureld_prune_hits_total 7",
		"gpureld_simulated_runs_total 13",
		"gpureld_adaptive_runs_saved_total 0",
	} {
		if !strings.Contains(buf.String(), needle) {
			t.Errorf("metrics missing %q in:\n%s", needle, buf.String())
		}
	}
}
