// Tests for the checkpointed fork-and-join wiring: wire-spec mapping,
// per-job fork/converge attribution, the /metrics exposition, and the
// injected scheduler clock.
package service_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpurel"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/microfi"
	"gpurel/internal/service"
)

func TestCheckpointSpecWire(t *testing.T) {
	sp := service.JobSpec{
		Layer: "micro", App: "VA", Kernel: "K1", Structure: "RF",
		Runs: 10, Seed: 1,
		Checkpoint: &service.SnapshotSpec{Stride: 500, BudgetMB: 64, Converge: true},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := sp.Point()
	if err != nil {
		t.Fatal(err)
	}
	want := &microfi.CheckpointSpec{Stride: 500, BudgetBytes: 64 << 20, Converge: true}
	if p.Checkpoint == nil || *p.Checkpoint != *want {
		t.Fatalf("Point checkpoint = %+v, want %+v", p.Checkpoint, want)
	}

	// SpecForPoint is the inverse mapping.
	back := service.SpecForPoint(p, campaign.Options{Runs: 10, Seed: 1})
	if ck := back.Checkpoint; ck == nil || ck.Stride != 500 || ck.BudgetMB != 64 || !ck.Converge {
		t.Fatalf("SpecForPoint lost checkpoint fields: %+v", back)
	}

	// sampling.prune still decodes, and changes nothing: every job prunes.
	sp.Sampling = &service.SamplingSpec{Prune: true}
	if q, err := sp.Point(); err != nil || q.Sampling != nil || q.Checkpoint == nil || *q.Checkpoint != *want {
		t.Fatalf("sampling.prune moved the point: %+v %+v (%v)", q.Sampling, q.Checkpoint, err)
	}
	sp.Sampling = nil

	// Converge alone implies auto-stride checkpointing.
	sp.Checkpoint = &service.SnapshotSpec{Converge: true}
	p, err = sp.Point()
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoint == nil || p.Checkpoint.Stride != microfi.AutoStride || !p.Checkpoint.Converge {
		t.Fatalf("converge-only spec: %+v", p.Checkpoint)
	}

	// No group: the point carries no spec, so the study default applies.
	sp.Checkpoint = nil
	if p, _ = sp.Point(); p.Checkpoint != nil {
		t.Fatalf("plain spec grew a checkpoint: %+v", p.Checkpoint)
	}
}

// TestEveryJobPrunes: an RF job with no checkpoint group and one with the
// explicit group {"stride":-1,"converge":true} both prune, whichever of the
// two evaluates the app first in one daemon (golden runs are built once per
// app and process): each job prunes the same draws and tallies the
// brute-force anchor.
func TestEveryJobPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator campaign")
	}
	const explicit = `,"checkpoint":{"stride":-1,"converge":true}`
	for _, order := range [][2]string{{"", explicit}, {explicit, ""}} {
		st := gpurel.NewStudy(0, 1)
		st.Counters = &adaptive.Counters{}
		sched, err := service.NewScheduler(service.Config{Source: service.NewStudySource(st), Counters: st.Counters})
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range order {
			var spec service.JobSpec
			body := `{"layer":"micro","app":"VA","kernel":"K1","structure":"RF","runs":300,"seed":1` + group + `}`
			if err := json.Unmarshal([]byte(body), &spec); err != nil {
				t.Fatal(err)
			}
			before := st.Counters.Pruned.Load()
			sub, err := sched.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitJob(t, sched, sub.ID)
			if fin.State != service.StateDone {
				t.Fatalf("%s: job ended %s: %s", body, fin.State, fin.Error)
			}
			if fin.Tally.Counts != [4]int{254, 29, 0, 17} {
				t.Errorf("%s: tallied %v, want the anchor [254 29 0 17]", body, fin.Tally.Counts)
			}
			// The anchor's pruned draws are exactly its Masked runs.
			if pruned := st.Counters.Pruned.Load() - before; pruned != 254 {
				t.Errorf("%s: pruned %d runs, want 254", body, pruned)
			}
		}
		sched.Close()
	}
}

// TestCheckpointCountersAndClock: per-job fork/converge attribution via
// CheckpointStats deltas, the new /metrics lines, and the injected clock
// stamping job lifecycle times.
func TestCheckpointCountersAndClock(t *testing.T) {
	var forks, converges atomic.Int64
	src := func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			// Every run forks; every third converges — mimicking what the
			// study-side golden run counters would record.
			forks.Add(1)
			if run%3 == 0 {
				converges.Add(1)
			}
			return faults.Result{Outcome: faults.Masked}
		}, nil
	}
	frozen := time.Unix(1_700_000_000, 0)
	sched, srv := newTestServer(t, service.Config{
		Source: src,
		Now:    func() time.Time { return frozen },
		CheckpointStats: func() microfi.CheckpointCounts {
			return microfi.CheckpointCounts{
				ForkResumes:  forks.Load(),
				ConvergeHits: converges.Load(),
				Snapshots:    4,
			}
		},
	})

	const runs = 30
	st, err := sched.Submit(service.JobSpec{
		Layer: "micro", App: "VA", Kernel: "K1", Runs: runs, Seed: 1,
		Checkpoint: &service.SnapshotSpec{Stride: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != service.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		st, _ = sched.Get(st.ID)
	}
	if st.ForkResumes != runs {
		t.Errorf("job attributed %d fork resumes, want %d", st.ForkResumes, runs)
	}
	if want := int64((runs + 2) / 3); st.ConvergeHits != want {
		t.Errorf("job attributed %d converge hits, want %d", st.ConvergeHits, want)
	}
	if st.Created != frozen.Unix() || st.Started != frozen.Unix() || st.Finished != frozen.Unix() {
		t.Errorf("lifecycle stamps ignore the injected clock: %+v", st)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"gpureld_fork_resumes_total 30",
		"gpureld_converge_hits_total 10",
		"gpureld_checkpoint_snapshots 4",
		"gpureld_fork_cycles_saved_total 0",
		"gpureld_converge_cycles_saved_total 0",
		"gpureld_checkpoint_bytes 0",
		"gpureld_checkpoint_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
