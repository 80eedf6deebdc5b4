package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// TestAdviseStudyFactory: the daemon's production advise backend resolves
// real apps — exercised end to end by the client and fleet advise tests, so
// here it only has to build, reject unknown apps, and leave every campaign
// to the runPoint hook it was given.
func TestAdviseStudyFactory(t *testing.T) {
	spec := JobSpec{Advise: &AdviseGroup{App: "VA", Budget: 0.1}, Runs: 5, Seed: 1}
	hook := func(gpurel.PointSpec, campaign.Options) (campaign.Tally, error) {
		return campaign.Tally{}, errors.New("no campaign runs here")
	}
	b, err := studyAdviseBackend(spec, hook)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := b.Kernels(context.Background(), "VA")
	if err != nil || len(ks) == 0 {
		t.Fatalf("study backend kernels: %v %v", ks, err)
	}
	if _, err := b.Kernels(context.Background(), "no-such-app"); err == nil {
		t.Error("unknown app not rejected")
	}
	if _, err := b.Measure(context.Background(), "VA", ks[0]); err == nil {
		t.Error("Measure ran a campaign without its runPoint hook")
	}
}

// TestSubmitQueueFullTableInvariant: concurrent submissions against a
// bound of one queued job, drained by one executor, some accepted and some
// refused as queue-full, never leave the job table inconsistent — every ID
// in the submission order has a job, every accepted job is listed exactly
// once, and no refused one is. Bounded to one second; meant for -race.
func TestSubmitQueueFullTableInvariant(t *testing.T) {
	s, err := NewScheduler(Config{
		Source: func(JobSpec) (campaign.Experiment, error) {
			return func(int, *rand.Rand) faults.Result { return faults.Result{} }, nil
		},
		QueueDepth:      1,
		WorkersPerShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 1}

	accepted := map[string]bool{}
	refused := 0
	for stop := time.Now().Add(time.Second); time.Now().Before(stop); {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := s.Submit(spec)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					accepted[st.ID] = true
				case errors.Is(err, errQueueFull):
					refused++
				default:
					t.Error(err)
				}
			}()
		}
		wg.Wait()

		s.mu.Lock()
		if len(s.order) != len(s.jobs) || len(s.order) != len(accepted) {
			t.Fatalf("table holds %d ids and %d jobs; %d accepted", len(s.order), len(s.jobs), len(accepted))
		}
		for _, id := range s.order {
			if s.jobs[id] == nil || !accepted[id] {
				t.Fatalf("order holds id %s with no accepted job", id)
			}
		}
		s.mu.Unlock()
	}
	if refused == 0 {
		t.Log("no submission was refused; the race window went unexercised")
	}
}

// TestQueueDepthCountsQueuedJobs: QueueDepth bounds the submitted jobs still
// in state queued. A job leaves the bound at its first claim or when it is
// canceled, and advise children are admitted outside it.
func TestQueueDepthCountsQueuedJobs(t *testing.T) {
	s, err := NewScheduler(Config{
		Source: func(JobSpec) (campaign.Experiment, error) {
			return func(int, *rand.Rand) faults.Result { return faults.Result{} }, nil
		},
		QueueDepth:       2,
		DisableLocalExec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 10}
	submit := func() error {
		_, err := s.Submit(spec)
		return err
	}
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(); !errors.Is(err, errQueueFull) {
		t.Fatalf("third queued job: err = %v, want queue full", err)
	}
	if _, err := s.admit("child", spec, false); err != nil {
		t.Fatalf("child refused at a full queue: %v", err)
	}
	if _, ok := s.ClaimWork(1); !ok {
		t.Fatal("no work to claim")
	}
	if err := submit(); err != nil {
		t.Fatalf("claimed job still holds its slot: %v", err)
	}
	if err := submit(); !errors.Is(err, errQueueFull) {
		t.Fatalf("queue over its depth: err = %v", err)
	}
	s.Cancel(second.ID)
	if err := submit(); err != nil {
		t.Fatalf("canceled job still holds its slot: %v", err)
	}
	if got := s.waiting.Load(); got != 2 {
		t.Errorf("waiting = %d, want 2", got)
	}
}
