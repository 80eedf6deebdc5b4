// End-to-end: an advise job through the client's job methods against a live
// daemon handler wired exactly like cmd/gpureld — real study backend, small
// campaigns run as child jobs.
package client_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/service"
)

func newTestDaemon(t *testing.T) *client.Client {
	t.Helper()
	study := gpurel.NewStudy(0, 1)
	sched, err := service.NewScheduler(service.Config{Source: service.NewStudySource(study)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	srv := httptest.NewServer(service.NewServer(sched).Handler())
	t.Cleanup(srv.Close)
	return client.New(srv.URL)
}

func TestAdviseClientEndToEnd(t *testing.T) {
	c := newTestDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A loose budget on a small app: the plan verifies quickly and the
	// client sees the full lifecycle through its own wire types.
	spec := client.JobSpec{
		Advise: &client.AdviseGroup{App: "VA", Budget: 0.5},
		Runs:   10,
		Seed:   3,
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" || st.State.Terminal() || st.Advise == nil {
		t.Fatalf("submit status: %+v", st)
	}

	var events []string
	if err := c.WatchEvents(ctx, st.ID, func(ev client.Event) error {
		events = append(events, ev.Type)
		return nil
	}); err != nil {
		t.Fatalf("WatchEvents: %v", err)
	}
	if len(events) == 0 || events[0] != "status" || events[len(events)-1] != "done" {
		t.Fatalf("event stream %v, want status ... done", events)
	}

	final, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != client.StateDone {
		t.Fatalf("final state %s (%s)", final.State, final.Error)
	}
	adv := final.Advise
	if adv == nil || adv.Plan == nil || adv.Verification == nil {
		t.Fatalf("done advise missing plan/verification: %+v", final)
	}
	if !adv.Verification.Pass || adv.Verification.SDC > spec.Advise.Budget {
		t.Fatalf("verification %+v, want pass within budget %g", adv.Verification, spec.Advise.Budget)
	}

	// The table holds the advise job, then its child campaigns, all done.
	list, err := c.ListJobs(ctx)
	if err != nil || len(list) < 2 || list[0].ID != st.ID {
		t.Fatalf("ListJobs: %v (%+v)", err, list)
	}
	for _, k := range list[1:] {
		if !strings.HasPrefix(k.ID, st.ID+".") || k.State != client.StateDone || k.Spec.Runs != spec.Runs {
			t.Errorf("child %s: %s, spec %+v", k.ID, k.State, k.Spec)
		}
	}

	// RunJob runs an advise spec to the same plan.
	again, err := c.RunJob(ctx, spec)
	if err != nil || again.State != client.StateDone || again.ID == st.ID {
		t.Fatalf("RunJob: %v (%+v)", err, again)
	}
	a, _ := json.Marshal(again.Advise)
	b, _ := json.Marshal(final.Advise)
	if string(a) != string(b) {
		t.Errorf("second advise differs:\n%s\n%s", a, b)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`gpureld_jobs_total{event="failed"} 0`,
		`gpureld_advise_plans_total{result="verified"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAdviseClientValidationError(t *testing.T) {
	c := newTestDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.SubmitJob(ctx, client.JobSpec{
		Advise: &client.AdviseGroup{App: "", Budget: 0.5}, Runs: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "advise.app is required") {
		t.Fatalf("want validation error surfaced through the client, got %v", err)
	}
}
