// The live index against the full scan it replaced: refClaimWork is the
// claim that walked every job the scheduler had ever admitted, kept here as
// the oracle. FuzzClaimOrder drives one scheduler through ClaimWork and one
// through refClaimWork with the same operations and holds every claim and
// the virtual-time table equal; TestLiveIndexLifecycle checks that a job
// leaves the index on every way a job ends, and that the journal restores
// exactly the unfinished jobs into it.
package service

import (
	"context"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"gpurel/internal/advisor"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// refClaimWork is ClaimWork over the whole submission order.
func (s *Scheduler) refClaimWork(max int) (WorkAssignment, bool) {
	if s.closed.Load() {
		return WorkAssignment{}, false
	}
	s.mu.Lock()
	tenants := s.refClaimPlanLocked()
	plan := make([][]claimCandidate, 0, len(tenants))
	for _, t := range tenants {
		plan = append(plan, s.refTenantJobsLocked(t))
	}
	s.mu.Unlock()

	for _, cands := range plan {
		for _, c := range cands {
			j := c.j
			j.mu.Lock()
			r, ok := j.nextChunkLocked(max)
			if !ok || !s.claimLocked(j, r) {
				j.mu.Unlock()
				continue
			}
			w := WorkAssignment{JobID: j.id, Spec: j.spec, From: r.From, To: r.To}
			j.mu.Unlock()
			s.chargeClaim(c.tenant, c.weight, r.To-r.From)
			return w, true
		}
	}
	return WorkAssignment{}, false
}

// refClaimPlanLocked is claimPlanLocked over s.order.
func (s *Scheduler) refClaimPlanLocked() []string {
	active := map[string]bool{}
	var tenants []string
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			continue
		}
		if t := j.spec.tenantName(); !active[t] {
			active[t] = true
			tenants = append(tenants, t)
		}
	}
	for t := range s.vtime {
		if !active[t] {
			delete(s.vtime, t)
		}
	}
	min, have := 0.0, false
	for _, v := range s.vtime {
		if !have || v < min {
			min, have = v, true
		}
	}
	for _, t := range tenants {
		if _, ok := s.vtime[t]; !ok {
			s.vtime[t] = min
		}
	}
	sort.Slice(tenants, func(i, k int) bool {
		vi, vk := s.vtime[tenants[i]], s.vtime[tenants[k]]
		if vi != vk {
			return vi < vk
		}
		return tenants[i] < tenants[k]
	})
	return tenants
}

// refTenantJobsLocked is tenantJobsLocked over s.order, terminal jobs
// included.
func (s *Scheduler) refTenantJobsLocked(tenant string) []claimCandidate {
	var cands []claimCandidate
	for idx, id := range s.order {
		j := s.jobs[id]
		if j.spec.tenantName() != tenant || j.spec.Advise != nil {
			continue
		}
		cands = append(cands, claimCandidate{
			j: j, tenant: tenant, weight: j.spec.weight(), prio: j.spec.weight(), idx: idx,
		})
	}
	sort.SliceStable(cands, func(i, k int) bool {
		if cands[i].prio != cands[k].prio {
			return cands[i].prio > cands[k].prio
		}
		return cands[i].idx < cands[k].idx
	})
	return cands
}

// synthSource draws an SDC for about a quarter of the runs, so adaptive
// stop rules fire at run-dependent boundaries.
func synthSource(JobSpec) (campaign.Experiment, error) {
	return func(run int, rng *rand.Rand) faults.Result {
		if rng.Intn(4) == 0 {
			return faults.Result{Outcome: faults.SDC}
		}
		return faults.Result{Outcome: faults.Masked}
	}, nil
}

// synthTally is the tally a worker reports for runs [from, to) of spec.
func synthTally(spec JobSpec, from, to int) campaign.Tally {
	exp, _ := synthSource(spec)
	return campaign.RunRange(campaign.Options{Runs: spec.Runs, Seed: spec.Seed, Workers: 1}, from, to, exp)
}

// fuzzLease is a claim both schedulers granted, by submission index.
type fuzzLease struct{ job, from, to int }

// FuzzClaimOrder: the live index serves exactly the full scan's schedule.
// Each pair of bytes is one operation applied to both schedulers: submit
// (three tenants, priorities 1-3, some adaptive jobs, some with a
// deadline), claim with a random max, a whole or prefix report of an open
// claim, return an open claim, cancel, or advance the shared clock past
// deadlines. Every claim must grant the same runs of the same job (by
// submission index) and leave the same virtual-time table.
func FuzzClaimOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		now := time.Unix(1_700_000_000, 0)
		cfg := Config{Source: synthSource, DisableLocalExec: true, QueueDepth: 64,
			Now: func() time.Time { return now }}
		live, err := NewScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		ref, err := NewScheduler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()

		var specs []JobSpec
		var ids [2][]string // per scheduler: live, ref
		seqOf := [2]map[string]int{{}, {}}
		var leases []fuzzLease
		tenants := []string{"", "alice", "bob"}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				if len(specs) == 24 {
					continue
				}
				spec := JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 1 + arg%40, Seed: int64(arg),
					Tenant: tenants[arg%3], Priority: 1 + (arg/3)%3}
				if arg%4 == 0 {
					spec.Sampling = &SamplingSpec{Margin99: 0.3, Batch: 5}
				}
				if arg%5 == 0 {
					spec.Deadline = 1
				}
				for k, s := range []*Scheduler{live, ref} {
					st, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					seqOf[k][st.ID] = len(specs)
					ids[k] = append(ids[k], st.ID)
				}
				specs = append(specs, spec)
			case 1:
				max := 1 + arg%16
				wl, okl := live.ClaimWork(max)
				wr, okr := ref.refClaimWork(max)
				if okl != okr {
					t.Fatalf("op %d: claim(%d) granted %v by the live index, %v by the full scan", i/2, max, okl, okr)
				}
				if !okl {
					continue
				}
				gl := fuzzLease{seqOf[0][wl.JobID], wl.From, wl.To}
				gr := fuzzLease{seqOf[1][wr.JobID], wr.From, wr.To}
				if gl != gr {
					t.Fatalf("op %d: claim(%d) granted job %d [%d,%d) by the live index, job %d [%d,%d) by the full scan",
						i/2, max, gl.job, gl.from, gl.to, gr.job, gr.from, gr.to)
				}
				if vl, vr := vtimeOf(live), vtimeOf(ref); !reflect.DeepEqual(vl, vr) {
					t.Fatalf("op %d: virtual time %v by the live index, %v by the full scan", i/2, vl, vr)
				}
				leases = append(leases, gl)
			case 2, 3:
				if len(leases) == 0 {
					continue
				}
				k := arg % len(leases)
				l := leases[k]
				to := l.to // a return, or a report of the whole remainder
				if ops[i]%6 == 2 && arg%2 == 1 {
					to = l.from + 1 + (arg/2)%(l.to-l.from)
				}
				for s, sched := range []*Scheduler{live, ref} {
					id := ids[s][l.job]
					if ops[i]%6 == 2 {
						if _, _, err := sched.ReportWork(id, l.from, to, synthTally(specs[l.job], l.from, to)); err != nil {
							t.Fatal(err)
						}
					} else {
						sched.ReturnWork(id, l.from, l.to)
					}
				}
				if l.from = to; l.from == l.to {
					leases = append(leases[:k], leases[k+1:]...)
				} else {
					leases[k] = l
				}
			case 4:
				if len(specs) == 0 {
					continue
				}
				k := arg % len(specs)
				live.Cancel(ids[0][k])
				ref.Cancel(ids[1][k])
			case 5:
				now = now.Add(time.Duration(arg) * 10 * time.Millisecond)
			}
		}
		for k := range specs {
			a, _ := live.Get(ids[0][k])
			b, _ := ref.Get(ids[1][k])
			if a.State != b.State || a.Done != b.Done || a.Tally != b.Tally || a.InFlight != b.InFlight {
				t.Errorf("job %d ends %s %d/%d by the live index, %s %d/%d by the full scan",
					k, a.State, a.Done, a.Total, b.State, b.Done, b.Total)
			}
		}
	})
}

// vtimeOf copies the virtual-time table.
func vtimeOf(s *Scheduler) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.vtime)
}

// liveIDs lists the live index by job ID.
func liveIDs(s *Scheduler) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []string{}
	for _, j := range s.live {
		out = append(out, j.id)
	}
	return out
}

// oneKernelBackend is an advise backend with a single kernel whose plain SDC
// already meets any budget the test asks for.
type oneKernelBackend struct{}

func (oneKernelBackend) Kernels(context.Context, string) ([]string, error) {
	return []string{"K1"}, nil
}

func (oneKernelBackend) Measure(_ context.Context, _, k string) (advisor.KernelMeasure, error) {
	return advisor.KernelMeasure{Kernel: k, Weight: 1, HardMult: 1.5, SDC: 0.01, SDCHardened: 0.001}, nil
}

func (oneKernelBackend) Overhead(context.Context, string, []string) (float64, error) { return 1.5, nil }

func (oneKernelBackend) Verify(context.Context, string, []string) (advisor.Verification, error) {
	return advisor.Verification{SDC: 0.01, PerKernel: map[string]float64{"K1": 0.01}}, nil
}

// TestLiveIndexLifecycle: a job is in the live index from admission until
// the first claim after it ends — done, adaptively stopped, canceled,
// failed at its deadline, or an advise job finishing — and a journal
// restores its unfinished jobs into the index and its finished ones not.
func TestLiveIndexLifecycle(t *testing.T) {
	// The journal's flush loop and the advise driver read the clock too.
	var now atomic.Int64
	now.Store(time.Unix(1_700_000_000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	journal := filepath.Join(t.TempDir(), "ckpt.json")
	s, err := NewScheduler(Config{
		Source: synthSource, DisableLocalExec: true, Now: clock, CheckpointPath: journal,
		AdviseBackend: func(JobSpec, RunPointFunc) (advisor.Backend, error) { return oneKernelBackend{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec JobSpec) string {
		t.Helper()
		spec.Layer, spec.App, spec.Kernel, spec.Seed = "micro", "fake", "K1", 3
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	report := func(id string, from, to int) {
		t.Helper()
		j, _ := s.job(id)
		if _, _, err := s.ReportWork(id, from, to, synthTally(j.spec, from, to)); err != nil {
			t.Fatal(err)
		}
	}
	done := submit(JobSpec{Runs: 10})
	early := submit(JobSpec{Runs: 1000, Sampling: &SamplingSpec{Margin99: 0.5, Batch: 10}})
	canceled := submit(JobSpec{Runs: 10})
	late := submit(JobSpec{Runs: 10, Deadline: 1})
	open := submit(JobSpec{Runs: 10})
	st, err := s.Submit(JobSpec{Advise: &AdviseGroup{App: "synth", Budget: 0.5}, Runs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	advise := st.ID
	if got, want := liveIDs(s), []string{done, early, canceled, late, open, advise}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live index after admission %v, want %v", got, want)
	}

	report(done, 0, 10)
	report(early, 0, 10)
	s.Cancel(canceled)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st, _ := s.Get(advise); st.State == StateDone {
			break
		} else if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("advise job %s: %s", st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	// A terminal job stays in the index until a claim plan sees it.
	if got := len(liveIDs(s)); got != 6 {
		t.Fatalf("live index holds %d jobs before a claim, want 6", got)
	}
	now.Add(int64(2 * time.Second))
	w, ok := s.ClaimWork(4)
	if !ok || w.JobID != open {
		t.Fatalf("claim %+v %v, want runs of %s", w, ok, open)
	}
	for id, want := range map[string]JobState{done: StateDone, early: StateDone, canceled: StateCanceled,
		late: StateFailed, advise: StateDone} {
		if st, _ := s.Get(id); st.State != want {
			t.Errorf("job %s is %s, want %s", id, st.State, want)
		}
	}
	if st, _ := s.Get(early); !st.EarlyStopped {
		t.Errorf("job %s did not stop early", early)
	}
	// The claim that failed the late job at its deadline planned before it
	// did; the next claim drops it.
	if got, want := liveIDs(s), []string{late, open}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live index after the first claim %v, want %v", got, want)
	}
	// A fully claimed job stays live: its runs may come back.
	if w, ok := s.ClaimWork(100); !ok || w.JobID != open || w.To != 10 {
		t.Fatalf("second claim %+v %v, want the rest of %s", w, ok, open)
	}
	if got, want := liveIDs(s), []string{open}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live index after the second claim %v, want %v", got, want)
	}
	if _, ok := s.ClaimWork(100); ok {
		t.Fatal("a claim with every run claimed granted work")
	}
	if got := liveIDs(s); !reflect.DeepEqual(got, []string{open}) {
		t.Fatalf("fully claimed job left the live index: %v", got)
	}
	s.ReturnWork(open, 0, 10)
	if w, ok := s.ClaimWork(100); !ok || w.JobID != open || w.From != 0 || w.To != 10 {
		t.Fatalf("returned runs claimed as %+v %v, want %s [0,10)", w, ok, open)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal holds five finished jobs and one parked one.
	r, err := NewScheduler(Config{Source: synthSource, DisableLocalExec: true, Now: clock, CheckpointPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := liveIDs(r); !reflect.DeepEqual(got, []string{open}) {
		t.Fatalf("restored live index %v, want [%s]", got, open)
	}
	if w, ok := r.ClaimWork(100); !ok || w.JobID != open {
		t.Fatalf("restored job not claimable: %+v %v", w, ok)
	}
}
