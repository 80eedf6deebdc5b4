// The selective-hardening advise API: a sibling subsystem to the campaign
// scheduler that runs internal/advisor loops (measure → search → verify)
// as long-lived server jobs with NDJSON progress, a restart-safe journal,
// and /metrics counters. It mounts onto the v1 mux through Server.Handler's
// variadic hooks, exactly like the fleet coordinator:
//
//	POST   /v1/advise             submit an AdviseSpec, returns AdviseStatus (202)
//	GET    /v1/advise             list advise jobs
//	GET    /v1/advise/{id}        one advise job's status (phase, plan, verification)
//	DELETE /v1/advise/{id}        cancel between units of work
//	GET    /v1/advise/{id}/events NDJSON progress stream until terminal
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/advisor"
	"gpurel/internal/journal"
)

// AdviseGroup is the nested "advise" group of the v1 advise spec: what to
// advise on. Like the job spec's "fault" group it defines the question, not
// the execution policy, so it is the part clients must always send.
type AdviseGroup struct {
	// App is the benchmark to harden selectively.
	App string `json:"app"`
	// Budget is the SDC AVF ceiling the plan must verifiably meet.
	Budget float64 `json:"budget"`
}

// AdviseSpec is one advise request as submitted over the wire. Runs and Seed
// parameterize the measurement campaigns behind the advise (every campaign
// point derives its own seed from Seed via gpurel.PointSeed, so two advises
// with equal spec are bit-identical).
type AdviseSpec struct {
	Advise AdviseGroup `json:"advise"`
	Runs   int         `json:"runs"`
	Seed   int64       `json:"seed"`
}

// UnmarshalJSON decodes the v1 advise schema, rejecting unknown fields like
// JobSpec does.
func (sp *AdviseSpec) UnmarshalJSON(data []byte) error {
	type plain AdviseSpec // no methods, so Decode cannot recurse
	var w plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*sp = AdviseSpec(w)
	return nil
}

// Validate rejects malformed advise specs at submission time (cheap checks
// only; unknown apps surface when the advise starts and fail it).
func (sp AdviseSpec) Validate() error {
	if sp.Advise.App == "" {
		return fmt.Errorf("advise.app is required")
	}
	if b := sp.Advise.Budget; b < 0 || b >= 1 {
		return fmt.Errorf("advise.budget must be an SDC AVF in [0, 1), got %g", b)
	}
	if sp.Runs <= 0 {
		return fmt.Errorf("runs must be positive, got %d", sp.Runs)
	}
	return nil
}

// AdviseStatus is the API view of an advise job: its spec, lifecycle state,
// the advisor phase it is in, measurement progress, and — once reached —
// the plan and its verification.
type AdviseStatus struct {
	ID    string     `json:"id"`
	Spec  AdviseSpec `json:"spec"`
	State JobState   `json:"state"`
	// Phase is the advisor phase: measure | search | verify | done.
	Phase string `json:"phase,omitempty"`
	// Measured and Costed count completed measurement units (kernels whose
	// vulnerability campaign / cost pricing has landed in the journal).
	Measured int `json:"measured,omitempty"`
	Costed   int `json:"costed,omitempty"`
	// Plan and Verification appear as their phases complete; a terminal
	// "done" state always carries both.
	Plan         *advisor.Plan         `json:"plan,omitempty"`
	Verification *advisor.Verification `json:"verification,omitempty"`
	Error        string                `json:"error,omitempty"`
	Created      int64                 `json:"created_unix"`
	Started      int64                 `json:"started_unix,omitempty"`
	Finished     int64                 `json:"finished_unix,omitempty"`
}

// AdviseEvent is one NDJSON line of an advise job's progress stream.
type AdviseEvent struct {
	// Type: "status" (the initial snapshot, and again when the job starts or
	// a shutdown parks it — the advise stream has no "running" event),
	// "progress" (a unit of work completed), or a terminal state name
	// ("done" | "failed" | "canceled").
	Type string       `json:"type"`
	Job  AdviseStatus `json:"job"`
}

// AdviseBackendFactory builds the measurement backend for one advise job.
// The daemon wires the study stack (gpurel.NewStudy(spec.Runs, spec.Seed));
// tests substitute synthetic tables.
type AdviseBackendFactory func(spec AdviseSpec) (advisor.Backend, error)

// AdvisorConfig configures the advise subsystem.
type AdvisorConfig struct {
	// Backend builds the per-job measurement backend. Required.
	Backend AdviseBackendFactory
	// JournalPath, when set, enables the journal: the advisor's full State
	// is persisted after every completed unit of work and incomplete advise
	// jobs resume from it on the next NewAdvisor with the same path —
	// reproducing, by the runner's determinism, the bit-identical plan.
	JournalPath string
	// Metrics, when set, gains a gpureld_advises_total exposition section.
	Metrics *Metrics
	// Now is the subsystem clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

// Advisor owns the advise job table and runs one goroutine per active job.
type Advisor struct {
	cfg AdvisorConfig

	mu    sync.Mutex
	jobs  map[string]*adviseJob
	order []string // submission order, for listing

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	submitted atomic.Int64
	resumed   atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	verified  atomic.Int64
	refused   atomic.Int64
}

// adviseJob is the mutable state behind one AdviseStatus.
type adviseJob struct {
	id      string
	spec    AdviseSpec
	created time.Time
	cancel  context.CancelFunc

	mu         sync.Mutex
	state      JobState
	st         *advisor.State // latest journaled advisor state (nil before the first unit)
	userCancel bool           // DELETE requested; distinguishes cancel from daemon shutdown
	errmsg     string
	started    time.Time
	finished   time.Time
	events     *Hub[AdviseEvent]
}

// newAdviseJob builds a queued advise job with nothing measured yet.
func newAdviseJob(id string, spec AdviseSpec, created time.Time) *adviseJob {
	return &adviseJob{id: id, spec: spec, created: created, state: StateQueued, events: NewHub[AdviseEvent](eventBuffer)}
}

// adviseCheckpoint is the durable state of one advise job: its spec plus the
// advisor's own journaled State, which is everything a fresh process needs
// to resume the run to a bit-identical plan.
type adviseCheckpoint struct {
	ID       string         `json:"id"`
	Spec     AdviseSpec     `json:"spec"`
	State    JobState       `json:"state"`
	Advisor  *advisor.State `json:"advisor,omitempty"`
	Error    string         `json:"error,omitempty"`
	Created  int64          `json:"created_unix"`
	Started  int64          `json:"started_unix,omitempty"`
	Finished int64          `json:"finished_unix,omitempty"`
}

// adviseCheckpointVersion guards the advise journal format.
const adviseCheckpointVersion = 1

// adviseCheckpointFile is the advisor's journal payload (see
// internal/journal for the envelope and the durability discipline).
type adviseCheckpointFile struct {
	journal.Header
	Jobs []adviseCheckpoint `json:"jobs"`
}

// NewAdvisor builds the advise subsystem, resumes any incomplete advise
// jobs found in the journal, and returns it ready to Mount.
func NewAdvisor(cfg AdvisorConfig) (*Advisor, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("service: AdvisorConfig.Backend is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Advisor{cfg: cfg, jobs: map[string]*adviseJob{}, ctx: ctx, cancel: cancel}
	if cfg.Metrics != nil {
		cfg.Metrics.AddCollector(a.writeMetrics)
	}

	if cfg.JournalPath != "" {
		var saved adviseCheckpointFile
		if err := journal.Load(cfg.JournalPath, adviseCheckpointVersion, &saved); err != nil {
			cancel()
			return nil, err
		}
		for _, jc := range saved.Jobs {
			j := newAdviseJob(jc.ID, jc.Spec, time.Unix(jc.Created, 0))
			j.state, j.st, j.errmsg = jc.State, jc.Advisor, jc.Error
			if jc.Started != 0 {
				j.started = time.Unix(jc.Started, 0)
			}
			if jc.Finished != 0 {
				j.finished = time.Unix(jc.Finished, 0)
			}
			a.jobs[j.id] = j
			a.order = append(a.order, j.id)
			if !j.state.Terminal() {
				// A job mid-flight when the previous process stopped resumes
				// from its last journaled unit of work.
				j.state = StateQueued
				a.resumed.Add(1)
				a.start(j)
			}
		}
	}
	return a, nil
}

// Mount adds the advise routes to the v1 mux (pass to Server.Handler).
func (a *Advisor) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/advise", a.handleSubmit)
	mux.HandleFunc("GET /v1/advise", a.handleList)
	mux.HandleFunc("GET /v1/advise/{id}", a.handleGet)
	mux.HandleFunc("DELETE /v1/advise/{id}", a.handleCancel)
	mux.HandleFunc("GET /v1/advise/{id}/events", a.handleEvents)
}

// Submit validates and starts one advise job.
func (a *Advisor) Submit(spec AdviseSpec) (AdviseStatus, error) {
	if a.closed.Load() {
		return AdviseStatus{}, fmt.Errorf("advisor is shutting down")
	}
	if err := spec.Validate(); err != nil {
		return AdviseStatus{}, err
	}
	j := newAdviseJob(NewID("a"), spec, a.cfg.Now())
	a.mu.Lock()
	a.jobs[j.id] = j
	a.order = append(a.order, j.id)
	a.mu.Unlock()
	a.submitted.Add(1)
	a.flush()
	a.start(j)
	return j.snapshot(), nil
}

// start launches the job's runner goroutine.
func (a *Advisor) start(j *adviseJob) {
	ctx, cancel := context.WithCancel(a.ctx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	a.wg.Add(1)
	go a.run(ctx, j)
}

// Get returns one advise job's status.
func (a *Advisor) Get(id string) (AdviseStatus, bool) {
	a.mu.Lock()
	j, ok := a.jobs[id]
	a.mu.Unlock()
	if !ok {
		return AdviseStatus{}, false
	}
	return j.snapshot(), true
}

// List returns every advise job in submission order.
func (a *Advisor) List() []AdviseStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AdviseStatus, 0, len(a.order))
	for _, id := range a.order {
		out = append(out, a.jobs[id].snapshot())
	}
	return out
}

// Cancel stops an advise job at the next unit-of-work boundary.
func (a *Advisor) Cancel(id string) (AdviseStatus, bool) {
	a.mu.Lock()
	j, ok := a.jobs[id]
	a.mu.Unlock()
	if !ok {
		return AdviseStatus{}, false
	}
	j.mu.Lock()
	if !j.state.Terminal() && j.cancel != nil {
		j.userCancel = true
		j.cancel()
	}
	st := j.snapshotLocked()
	j.mu.Unlock()
	return st, true
}

// Close cancels all running advise jobs and waits for their goroutines.
func (a *Advisor) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	a.cancel()
	a.wg.Wait()
	return a.flush()
}

// run drives one advise job to a terminal state.
func (a *Advisor) run(ctx context.Context, j *adviseJob) {
	defer a.wg.Done()

	j.mu.Lock()
	j.state = StateRunning
	j.started = a.cfg.Now()
	// The runner mutates its State in place between emissions, so it gets a
	// private copy; j.st only ever holds frozen clones.
	resume := cloneAdvisorState(j.st)
	spec := j.spec
	j.publishLocked("status")
	j.mu.Unlock()
	a.flush()

	backend, err := a.cfg.Backend(spec)
	if err != nil {
		a.finish(j, StateFailed, fmt.Sprintf("backend: %v", err))
		return
	}
	r := &advisor.Runner{
		Backend: backend,
		App:     spec.Advise.App,
		Budget:  spec.Advise.Budget,
		Resume:  resume,
		OnState: func(st *advisor.State) {
			cp := cloneAdvisorState(st)
			j.mu.Lock()
			j.st = cp
			j.publishLocked("progress")
			j.mu.Unlock()
			a.flush()
		},
	}
	st, err := r.Run(ctx)
	j.mu.Lock()
	j.st = st
	j.mu.Unlock()

	switch {
	case err == nil:
		a.verified.Add(1)
		a.finish(j, StateDone, "")
	case errors.Is(err, context.Canceled):
		j.mu.Lock()
		user := j.userCancel
		j.mu.Unlock()
		if !user {
			// Daemon shutdown, not a DELETE: leave the job non-terminal in
			// the journal so the next process resumes it from the last
			// completed unit (and, by determinism, the identical plan).
			j.mu.Lock()
			j.state = StateQueued
			j.publishLocked("status")
			j.mu.Unlock()
			a.flush()
			return
		}
		a.finish(j, StateCanceled, "")
	default:
		var refused *advisor.ErrPlanRefused
		var unattainable *advisor.ErrBudgetUnattainable
		if errors.As(err, &refused) || errors.As(err, &unattainable) {
			a.refused.Add(1)
		}
		a.finish(j, StateFailed, err.Error())
	}
}

// finish moves a job to a terminal state, publishes the terminal event, and
// bumps the lifecycle counters.
func (a *Advisor) finish(j *adviseJob, st JobState, errmsg string) {
	j.mu.Lock()
	j.state = st
	j.errmsg = errmsg
	j.finished = a.cfg.Now()
	j.publishLocked(string(st))
	j.mu.Unlock()
	switch st {
	case StateDone:
		a.done.Add(1)
	case StateFailed:
		a.failed.Add(1)
	case StateCanceled:
		a.canceled.Add(1)
	}
	a.flush()
}

// flush persists every advise job to the journal. The advisor's flush policy
// is synchronous: every completed unit of work calls it before moving on.
func (a *Advisor) flush() error {
	if a.cfg.JournalPath == "" {
		return nil
	}
	a.mu.Lock()
	jobs := make([]adviseCheckpoint, 0, len(a.order))
	for _, id := range a.order {
		jobs = append(jobs, a.jobs[id].checkpoint())
	}
	a.mu.Unlock()
	return journal.Save(a.cfg.JournalPath, adviseCheckpointVersion, a.cfg.Now().Unix(), &adviseCheckpointFile{Jobs: jobs})
}

// writeMetrics is the /metrics exposition section for the advise subsystem.
func (a *Advisor) writeMetrics(w io.Writer) {
	fmt.Fprintln(w, "# HELP gpureld_advises_total Advise jobs by lifecycle event since process start.")
	fmt.Fprintln(w, "# TYPE gpureld_advises_total counter")
	fmt.Fprintf(w, "gpureld_advises_total{event=\"submitted\"} %d\n", a.submitted.Load())
	fmt.Fprintf(w, "gpureld_advises_total{event=\"resumed\"} %d\n", a.resumed.Load())
	fmt.Fprintf(w, "gpureld_advises_total{event=\"done\"} %d\n", a.done.Load())
	fmt.Fprintf(w, "gpureld_advises_total{event=\"failed\"} %d\n", a.failed.Load())
	fmt.Fprintf(w, "gpureld_advises_total{event=\"canceled\"} %d\n", a.canceled.Load())
	fmt.Fprintln(w, "# HELP gpureld_advise_plans_total Advise plans by verification verdict.")
	fmt.Fprintln(w, "# TYPE gpureld_advise_plans_total counter")
	fmt.Fprintf(w, "gpureld_advise_plans_total{result=\"verified\"} %d\n", a.verified.Load())
	fmt.Fprintf(w, "gpureld_advise_plans_total{result=\"refused\"} %d\n", a.refused.Load())
}

func (a *Advisor) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec AdviseSpec
	if !DecodeBody(w, r, "advise spec", &spec) {
		return
	}
	st, err := a.Submit(spec)
	if err != nil {
		status, code := http.StatusBadRequest, ErrCodeBadRequest
		if a.closed.Load() {
			status, code = http.StatusServiceUnavailable, ErrCodeUnavailable
		}
		WriteError(w, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusAccepted, st)
}

func (a *Advisor) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, a.List())
}

func (a *Advisor) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := a.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such advise job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (a *Advisor) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := a.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such advise job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleEvents streams one NDJSON event per line: an initial "status"
// snapshot, then "progress" per completed advisor unit, ending with the
// terminal state.
func (a *Advisor) handleEvents(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	j, ok := a.jobs[r.PathValue("id")]
	a.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such advise job")
		return
	}
	StreamNDJSON(w, r, a.ctx.Done(), j.events,
		func() (any, bool) {
			st := j.snapshot()
			return AdviseEvent{Type: st.State.snapshotType(), Job: st}, !st.State.Terminal()
		},
		func(ev AdviseEvent) (any, bool) { return ev, !ev.Job.State.Terminal() })
}

func (j *adviseJob) snapshotLocked() AdviseStatus {
	st := AdviseStatus{
		ID:      j.id,
		Spec:    j.spec,
		State:   j.state,
		Error:   j.errmsg,
		Created: j.created.Unix(),
	}
	if a := j.st; a != nil {
		st.Phase = a.Phase
		st.Measured = len(a.Measures)
		st.Costed = len(a.Costs)
		st.Plan = a.Plan
		st.Verification = a.Verification
	}
	if !j.started.IsZero() {
		st.Started = j.started.Unix()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Unix()
	}
	return st
}

func (j *adviseJob) snapshot() AdviseStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *adviseJob) checkpoint() adviseCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	jc := adviseCheckpoint{
		ID: j.id, Spec: j.spec, State: j.state, Advisor: j.st,
		Error: j.errmsg, Created: j.created.Unix(),
	}
	if !j.started.IsZero() {
		jc.Started = j.started.Unix()
	}
	if !j.finished.IsZero() {
		jc.Finished = j.finished.Unix()
	}
	return jc
}

// publishLocked fans an event with the job's current status out to its
// stream subscribers (j.mu held, so events leave in state order).
func (j *adviseJob) publishLocked(typ string) {
	j.events.Publish(AdviseEvent{Type: typ, Job: j.snapshotLocked()})
}

// cloneAdvisorState deep-copies a journaled advisor state (JSON round-trip:
// the type is defined by its wire form, so this is exact).
func cloneAdvisorState(st *advisor.State) *advisor.State {
	if st == nil {
		return nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("service: marshal advisor state: %v", err))
	}
	var cp advisor.State
	if err := json.Unmarshal(data, &cp); err != nil {
		panic(fmt.Sprintf("service: unmarshal advisor state: %v", err))
	}
	return &cp
}
