// Job lifecycle on the work ledger: every claimer — in-process executor or
// fleet lease — draws from one fair-share ledger that enforces the deadline
// at claim time and drops reports into a canceled job, and no interleaving
// of claims, reports, returns and cancels counts a run twice.
package service_test

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/service"
)

// TestLocalFairShare: in-process execution serves tenants by fair share,
// not by submission order. With one executor running one campaign worker,
// tenant B's small job finishes while tenant A's big one, submitted first,
// is still running. A's runs block from run 1000 on, so A cannot finish
// before the test looks.
func TestLocalFairShare(t *testing.T) {
	release := make(chan struct{})
	sched, err := service.NewScheduler(service.Config{
		Source: func(spec service.JobSpec) (campaign.Experiment, error) {
			return func(run int, rng *rand.Rand) faults.Result {
				if spec.Tenant == "A" && run >= 1000 {
					<-release
				}
				return outcome(rng)
			}, nil
		},
		Shards:          1,
		WorkersPerShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	t.Cleanup(func() { close(release) }) // runs first: Close waits on A's chunk

	a := submitTenant(t, sched, "A", 0, 3000)
	b := submitTenant(t, sched, "B", 0, 20)
	fin := waitJob(t, sched, b)
	if want := synthTally(campaign.Options{Runs: 20, Seed: 1}); fin.State != service.StateDone || fin.Tally != want {
		t.Fatalf("tenant B's job = %s %+v, want done with %+v", fin.State, fin.Tally, want)
	}
	if st, _ := sched.Get(a); st.State != service.StateRunning {
		t.Errorf("tenant A's job is %s when B finished, want running", st.State)
	}
}

// TestDeadlineFleetOnly: the deadline holds for fleet claims too. A job
// first claimed after its deadline_sec has passed is refused and fails.
func TestDeadlineFleetOnly(t *testing.T) {
	base := time.Unix(1_800_000_000, 0)
	var elapsed atomic.Int64
	sched, err := service.NewScheduler(service.Config{
		Source:           fakeSource(0),
		DisableLocalExec: true,
		Now:              func() time.Time { return base.Add(time.Duration(elapsed.Load())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 100, Seed: 1, Deadline: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	elapsed.Store(int64(50 * time.Millisecond))
	if wa, ok := sched.ClaimWork(1); ok {
		t.Fatalf("claim past the deadline granted %+v", wa)
	}
	got, _ := sched.Get(st.ID)
	if got.State != service.StateFailed || !strings.Contains(got.Error, "deadline exceeded") {
		t.Errorf("job past its deadline = %s %q, want failed with \"deadline exceeded\"", got.State, got.Error)
	}
}

// TestCancelWhileLeased: canceling a job whose every run is leased out
// settles it at once, and the lease's late report is dropped.
func TestCancelWhileLeased(t *testing.T) {
	sched := claimSched(t)
	id := submitTenant(t, sched, "", 0, 100)
	wa, ok := sched.ClaimWork(100)
	if !ok || wa.From != 0 || wa.To != 100 {
		t.Fatalf("claim = %+v, %v; want the whole job", wa, ok)
	}
	st, _ := sched.Cancel(id)
	if st.State != service.StateCanceled {
		t.Fatalf("Cancel answered %s, want canceled", st.State)
	}
	st, merged, err := sched.ReportWork(id, 0, 100, synthTally(campaign.Options{Runs: 100, Seed: 1}))
	if err != nil || merged {
		t.Errorf("late report: merged=%v err=%v, want dropped", merged, err)
	}
	if got, _ := sched.Get(id); got.State != service.StateCanceled || got.Done != 0 || st.State != service.StateCanceled {
		t.Errorf("canceled job after the late report = %s with %d runs", got.State, got.Done)
	}
}

// FuzzLedger drives a fleet-only scheduler through random interleavings of
// Submit, ClaimWork, ReportWork (prefix reports, also from leases already
// returned, as a late worker would), ReturnWork and Cancel, then reports
// everything outstanding and drains the ledger. No run may merge twice,
// every job not canceled ends done with the tally of campaign.Run at its
// seed, and no canceled job ends done.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 30, 0, 77, 1, 5, 1, 9, 2, 3, 3, 0, 2, 200, 4, 1, 1, 40, 2, 0})
	f.Add([]byte{0, 10, 1, 15, 4, 0, 2, 255, 0, 3, 1, 2, 3, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 39, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 3, 2, 2, 2})
	// Claim [0,3), return it, reclaim [0,1) and report it, then the
	// returned lease reports [0,3) late: the dropped report must leave
	// [1,3) pending, or the job never finishes.
	f.Add([]byte("20820080"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		sched, err := service.NewScheduler(service.Config{Source: fakeSource(0), DisableLocalExec: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()

		var ids []string
		specs := map[string]service.JobSpec{}
		merged := map[string][]bool{}
		canceled := map[string]bool{}
		var leases, stale []service.WorkAssignment // open; returned but still able to report

		// report executes [w.From, to) and reports it, checking that no
		// accepted report covers a run already merged.
		report := func(w service.WorkAssignment, to int) {
			tl := synthRange(w.Spec, w.From, to)
			_, ok, err := sched.ReportWork(w.JobID, w.From, to, tl)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			for r := w.From; r < to; r++ {
				if merged[w.JobID][r] {
					t.Fatalf("run %d of %s merged twice", r, w.JobID)
				}
				merged[w.JobID][r] = true
			}
		}
		tenants := []string{"", "alice", "bob"}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0:
				if len(ids) == 8 {
					continue
				}
				spec := service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1",
					Runs: 1 + arg%40, Seed: int64(arg), Tenant: tenants[arg%3], Priority: arg % 4}
				st, err := sched.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
				specs[st.ID] = spec
				merged[st.ID] = make([]bool, spec.Runs)
			case 1:
				if w, ok := sched.ClaimWork(1 + arg%16); ok {
					leases = append(leases, w)
				}
			case 2:
				// A prefix report: the lease shrinks to its remainder and
				// closes once fully reported.
				list := &leases
				if arg%2 == 1 && len(stale) > 0 || len(leases) == 0 {
					list = &stale
				}
				if len(*list) == 0 {
					continue
				}
				k := arg % len(*list)
				w := (*list)[k]
				to := w.From + 1 + (arg/8)%(w.To-w.From)
				report(w, to)
				if w.From = to; w.From == w.To {
					*list = append((*list)[:k], (*list)[k+1:]...)
				} else {
					(*list)[k] = w
				}
			case 3:
				if len(leases) == 0 {
					continue
				}
				k := arg % len(leases)
				w := leases[k]
				sched.ReturnWork(w.JobID, w.From, w.To)
				leases = append(leases[:k], leases[k+1:]...)
				stale = append(stale, w)
			case 4:
				if len(ids) == 0 {
					continue
				}
				if st, _ := sched.Cancel(ids[arg%len(ids)]); st.State == service.StateCanceled {
					canceled[st.ID] = true
				}
			}
		}

		for _, w := range append(leases, stale...) {
			report(w, w.To)
		}
		for n := 0; ; n++ {
			w, ok := sched.ClaimWork(7)
			if !ok {
				break
			}
			if n > 1000 {
				t.Fatal("ledger does not drain")
			}
			report(w, w.To)
		}
		for _, id := range ids {
			st, _ := sched.Get(id)
			spec := specs[id]
			switch {
			case canceled[id]:
				if st.State != service.StateCanceled {
					t.Errorf("canceled job %s ended %s", id, st.State)
				}
			case st.State != service.StateDone:
				t.Errorf("job %s ended %s with %d/%d runs", id, st.State, st.Done, spec.Runs)
			default:
				if want := synthTally(campaign.Options{Runs: spec.Runs, Seed: spec.Seed}); st.Tally != want {
					t.Errorf("job %s tally %+v, want campaign.Run's %+v", id, st.Tally, want)
				}
			}
		}
	})
}

// synthRange is the tally a worker reports for runs [from, to) of spec.
func synthRange(spec service.JobSpec, from, to int) campaign.Tally {
	return campaign.RunRange(campaign.Options{Runs: spec.Runs, Seed: spec.Seed, Workers: 1}, from, to,
		func(run int, rng *rand.Rand) faults.Result { return outcome(rng) })
}
