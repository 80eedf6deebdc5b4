package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/service"
)

// syncBuffer is a bytes.Buffer the daemon's goroutines may write while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one gpureld process run in-test on a journal.
type daemon struct {
	stop   context.CancelFunc
	code   chan int
	stdout *syncBuffer
	stderr *syncBuffer
	cl     *client.Client
}

// startDaemon runs gpureld on a loopback port with the job journal at path
// and any extra flags, and waits until it listens.
func startDaemon(t *testing.T, journal string, extra ...string) *daemon {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{stop: stop, code: make(chan int, 1), stdout: &syncBuffer{}, stderr: &syncBuffer{}}
	args := append([]string{"-addr", "127.0.0.1:0", "-checkpoint", journal, "-checkpoint-interval", "50ms",
		"-chunk", "20", "-workers", "1", "-fleet-checkpoint", ""}, extra...)
	go func() { d.code <- run(ctx, args, d.stdout, d.stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(d.stderr.String(), "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			d.cl = client.New("http://" + addr)
			return d
		}
		select {
		case code := <-d.code:
			t.Fatalf("gpureld exited %d before listening: %s", code, d.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	stop()
	t.Fatalf("gpureld did not listen: %s", d.stderr.String())
	return nil
}

// drain cancels the daemon's context, as SIGTERM does, and waits for it to
// exit cleanly.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.stop()
	select {
	case code := <-d.code:
		if code != 0 {
			t.Fatalf("gpureld exited %d: %s", code, d.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("gpureld did not drain")
	}
	if !strings.Contains(d.stdout.String(), "drained and checkpointed") {
		t.Errorf("no drain farewell on stdout: %q", d.stdout.String())
	}
}

// TestDrainRestartBitIdentical: a job submitted over HTTP, drained mid-run
// and finished by a second daemon on the same journal tallies exactly as a
// one-shot campaign.Run of the same spec — the VA/K1/RF anchor, Counts
// [254,29,0,17]. The first daemon executes nothing itself (-no-local): the
// test is its fleet worker, and reports part of a lease before the drain, so
// the job is mid-run however fast the machine is.
func TestDrainRestartBitIdentical(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ckpt.json")
	spec := service.JobSpec{Layer: "micro", App: "VA", Kernel: "K1", Structure: "RF", Runs: 300, Seed: 1}
	opts := campaign.Options{Runs: spec.Runs, Seed: spec.Seed, Workers: 1}
	ctx := context.Background()
	exp, err := service.NewStudySource(gpurel.NewStudy(0, 1))(spec)
	if err != nil {
		t.Fatal(err)
	}

	first := startDaemon(t, journal, "-no-local")
	st, err := first.cl.SubmitJob(ctx, spec)
	if err != nil {
		first.drain(t)
		t.Fatal(err)
	}
	const reported = 40
	ls, ok, err := first.cl.Lease(ctx, service.LeaseRequest{Worker: "test", MaxRuns: 100})
	if err == nil && !ok {
		err = errors.New("no lease granted")
	}
	if err == nil {
		_, err = first.cl.ReportLease(ctx, ls.ID, service.LeaseReport{Worker: "test", From: ls.From,
			To: ls.From + reported, Tally: campaign.RunRange(opts, ls.From, ls.From+reported, exp)})
	}
	if err == nil {
		st, err = first.cl.GetJob(ctx, st.ID)
	}
	first.drain(t)
	if err != nil {
		t.Fatal(err)
	}
	if ls.JobID != st.ID || ls.From != 0 || st.Done != reported || st.State != service.StateRunning {
		t.Fatalf("lease %+v; job before the drain %s with %d runs done, want running with %d", ls, st.State, st.Done, reported)
	}

	second := startDaemon(t, journal)
	defer second.drain(t)
	got, err := second.cl.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone {
		t.Fatalf("resumed job ended %s: %s", got.State, got.Error)
	}

	want := campaign.Run(opts, exp)
	if got.Tally != want || want.Counts != [4]int{254, 29, 0, 17} {
		t.Errorf("drained and resumed tally %+v, one-shot %+v (anchor Counts [254 29 0 17])", got.Tally, want)
	}
}
