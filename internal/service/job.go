// Package service is the campaign job server behind cmd/gpureld: a
// long-running daemon that accepts AVF/SVF campaign-point specs and
// selective-hardening advise specs over HTTP, schedules them on a bounded
// sharded worker pool, leases run-ranges to remote fleet workers
// (internal/fleet), journals completed run-ranges to a JSON checkpoint so
// interrupted jobs resume exactly where they stopped, streams NDJSON
// progress, and exports Prometheus metrics. An advise job runs its
// measurement campaigns as child jobs of the same scheduler.
//
// Determinism is the load-bearing property: campaign run i always uses
// rand.NewSource(Seed+i) (campaign.RunRange), so a job executed in chunks,
// interrupted, checkpointed and resumed in a new process — or fanned out
// across a fleet of workers — tallies bit for bit the same as one
// uninterrupted campaign.Run with the same seed.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"gpurel"
	"gpurel/internal/adaptive"
	"gpurel/internal/advisor"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/gpu"
	"gpurel/internal/microfi"
	"gpurel/internal/softfi"
)

// FaultSpec is the nested "fault" group of the v1 job spec: the fault model
// a micro-layer point injects (absent = the legacy transient single-bit
// flip). Unlike the sampling and checkpoint groups it changes what the
// point measures, so it participates in point identity (seeds) — see
// gpurel.PointSeed. It is exactly the injection layer's serializable spec.
type FaultSpec = faultmodel.Spec

// SamplingSpec is the adaptive-sampling group of the v1 job spec: knobs that
// tune how many runs a campaign point executes, never what each run measures.
type SamplingSpec struct {
	// Margin99 enables adaptive sequential stopping: the job finishes early
	// at the first batch boundary where the Wilson-score 99% CI half-width
	// of the failure rate is at or under this target (0 = fixed-n). Runs
	// stays the hard budget cap.
	Margin99 float64 `json:"margin99,omitempty"`
	// Batch is the stop-rule granularity in runs (0 = 100). Chunk and lease
	// ends are clamped to batch boundaries so a checkpointed, resumed or
	// fleet-distributed adaptive job evaluates the stop rule on the same
	// prefixes and tallies bit-identically to a sequential run.
	Batch int `json:"batch,omitempty"`
	// Prune enables liveness-guided pruning of RF and SMEM injections (micro
	// layer): provably-dead sites are classified from the golden run's
	// interval map without simulation, bit-identically to brute force.
	Prune bool `json:"prune,omitempty"`
}

// SnapshotSpec is the checkpointed fork-and-join group of the v1 job spec
// (micro layer): the app's golden run snapshots machine state so faulty runs
// resume from the nearest snapshot below their injection cycle,
// bit-identically to brute force. Golden runs are built once per
// (app, process): the first job to evaluate an app fixes its configuration.
type SnapshotSpec struct {
	// Stride is the snapshot interval in cycles. Negative = auto (about
	// microfi.DefaultSnapshots checkpoints); 0 = off unless Converge is set.
	Stride int64 `json:"stride,omitempty"`
	// BudgetMB bounds retained snapshot memory in MiB; the stride
	// auto-widens to fit. 0 = microfi.DefaultCheckpointBudget, negative =
	// unlimited.
	BudgetMB int `json:"budget_mb,omitempty"`
	// Converge additionally joins faulty runs back to the golden run at the
	// first checkpoint where their machine state matches it exactly. Implies
	// auto-stride checkpointing when Stride is 0.
	Converge bool `json:"converge,omitempty"`
}

// AdviseGroup is the nested "advise" group of the v1 job spec: it makes the
// job a selective-hardening advise (internal/advisor: measure, search,
// verify) instead of a campaign point. Like the "fault" group it defines the
// question, not the execution policy.
type AdviseGroup struct {
	// App is the benchmark to harden selectively.
	App string `json:"app"`
	// Budget is the SDC AVF ceiling the plan must verifiably meet.
	Budget float64 `json:"budget"`
}

// JobSpec is one job as submitted over the wire: a campaign point, or — with
// the "advise" group — a selective-hardening advise.
//
// A campaign point's Seed is the campaign seed used directly by
// campaign.RunRange (run i uses Seed+i); clients that want parity with a
// local Study derive it with gpurel.PointSeed(baseSeed, point). The v1
// schema groups its execution knobs into the nested "sampling",
// "checkpoint" and "fault" objects.
//
// An advise spec carries only "advise", "runs" (injections per measurement
// campaign), "seed" (the base study seed every campaign point derives its
// own seed from, so equal specs produce bit-identical plans), "tenant" and
// "priority"; its campaigns run as child jobs of the advise job.
//
// Any other field is rejected on decode.
type JobSpec struct {
	// Advise makes the job a selective-hardening advise (nil = a campaign
	// point).
	Advise *AdviseGroup `json:"advise,omitempty"`

	Layer     string `json:"layer,omitempty"`     // "micro" | "soft"
	App       string `json:"app,omitempty"`       // benchmark name, e.g. "VA"
	Kernel    string `json:"kernel,omitempty"`    // kernel name, e.g. "K1"
	Structure string `json:"structure,omitempty"` // micro: RF | SMEM | L1D | L1T | L2 | SCHED | STACK | BARRIER (default RF)
	Mode      string `json:"mode,omitempty"`      // soft: SVF | SVF-LD | SVF-USE (default SVF)
	Hardened  bool   `json:"hardened,omitempty"`  // inject into the TMR-hardened variant
	// Harden selects the selectively hardened variant: the kernels whose
	// launches run TMR (micro layer only, mutually exclusive with
	// "hardened"). The advisor's verification campaigns submit these.
	Harden   []string `json:"harden,omitempty"`
	Runs     int      `json:"runs"` // injections (paper: 3000 per point)
	Seed     int64    `json:"seed"` // campaign seed; run i uses Seed+i
	Deadline float64  `json:"deadline_sec,omitempty"`

	// Tenant names the submitting tenant for weighted fair-share scheduling
	// ("" = the default tenant). Priority is the job's fair-share weight
	// within 1..100 (0 = default 1). Neither participates in point identity:
	// they shape who gets served next, never what a run measures, so tallies
	// stay bit-identical whatever the tenant mix.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// Sampling is the adaptive-sampling group (nil = the paper's fixed-n
	// methodology).
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// Checkpoint is the fork-and-join snapshot group (nil = brute force).
	Checkpoint *SnapshotSpec `json:"checkpoint,omitempty"`
	// Fault is the fault-model group (nil = transient single-bit flip).
	// Micro layer only; control structures (SCHED/STACK/BARRIER) require
	// fault.model "control".
	Fault *FaultSpec `json:"fault,omitempty"`
}

// UnmarshalJSON decodes the v1 schema, rejecting unknown fields — a typo in
// a knob name must not silently run the default campaign.
func (sp *JobSpec) UnmarshalJSON(data []byte) error {
	type plain JobSpec // no methods, so Decode cannot recurse
	var w plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*sp = JobSpec(w)
	return nil
}

// sampling returns the adaptive group, nil-safe.
func (sp JobSpec) sampling() SamplingSpec {
	if sp.Sampling == nil {
		return SamplingSpec{}
	}
	return *sp.Sampling
}

// snapshot returns the checkpoint group, nil-safe.
func (sp JobSpec) snapshot() SnapshotSpec {
	if sp.Checkpoint == nil {
		return SnapshotSpec{}
	}
	return *sp.Checkpoint
}

// policy resolves the spec's adaptive knobs to the engine's stopping policy.
func (sp JobSpec) policy() adaptive.Policy {
	s := sp.sampling()
	return adaptive.Policy{Margin: s.Margin99, Batch: s.Batch}
}

// batchSize is the effective stop-rule granularity.
func (sp JobSpec) batchSize() int {
	if b := sp.sampling().Batch; b > 0 {
		return b
	}
	return adaptive.DefaultBatch
}

// adaptive reports whether the spec requests sequential early stopping.
func (sp JobSpec) adaptive() bool { return sp.sampling().Margin99 > 0 }

// DefaultTenant is the tenant name jobs with an empty "tenant" field are
// accounted under.
const DefaultTenant = "default"

// tenantName resolves the spec's fair-share tenant.
func (sp JobSpec) tenantName() string {
	if sp.Tenant == "" {
		return DefaultTenant
	}
	return sp.Tenant
}

// weight resolves the spec's fair-share weight (Priority, default 1).
func (sp JobSpec) weight() int {
	if sp.Priority <= 0 {
		return 1
	}
	return sp.Priority
}

// Point resolves the spec to the study-level campaign point, validating the
// enum fields and the point rules (gpurel.PointSpec.Validate). The model /
// structure pairing is checked with the effective fault spec even when the
// group is absent: a control structure with no fault group would otherwise
// surface only when the job starts.
func (sp JobSpec) Point() (gpurel.PointSpec, error) {
	p := gpurel.PointSpec{Layer: gpurel.Layer(sp.Layer), App: sp.App, Kernel: sp.Kernel, Hardened: sp.Hardened}
	if len(sp.Harden) > 0 {
		p.Harden = append([]string(nil), sp.Harden...)
	}
	if sp.Fault != nil {
		fc := *sp.Fault
		p.Fault = &fc
	}
	var err error
	switch p.Layer {
	case gpurel.LayerMicro:
		p.Structure, err = gpu.ParseStructure(sp.Structure)
	case gpurel.LayerSoft:
		p.Mode, err = ParseMode(sp.Mode)
	}
	if err == nil {
		err = p.Validate()
	}
	if err != nil {
		return p, err
	}
	if s := sp.sampling(); s.Margin99 > 0 || s.Prune {
		p.Sampling = &gpurel.SamplingPolicy{Margin: s.Margin99, Batch: s.Batch, Prune: s.Prune}
	}
	c := sp.snapshot()
	if ck := microfi.NewCheckpointSpec(c.Stride, int64(c.BudgetMB), c.Converge); ck.Enabled() {
		p.Checkpoint = &ck
	}
	return p, nil
}

// Validate rejects malformed specs at submission time (cheap checks only;
// unknown apps/kernels surface when the job starts and fail it).
func (sp JobSpec) Validate() error {
	if sp.Priority < 0 || sp.Priority > 100 {
		return fmt.Errorf("priority must be in 0..100 (0 = default weight 1), got %d", sp.Priority)
	}
	if sp.Advise != nil {
		return sp.validateAdvise()
	}
	if sp.App == "" || sp.Kernel == "" {
		return fmt.Errorf("app and kernel are required")
	}
	if sp.Runs <= 0 {
		return fmt.Errorf("runs must be positive, got %d", sp.Runs)
	}
	if sp.Deadline < 0 {
		return fmt.Errorf("deadline_sec must be non-negative")
	}
	if s := sp.sampling(); s.Margin99 < 0 || s.Margin99 >= 1 {
		return fmt.Errorf("sampling.margin99 must be in [0, 1), got %g", s.Margin99)
	} else if s.Batch < 0 {
		return fmt.Errorf("sampling.batch must be non-negative, got %d", s.Batch)
	}
	_, err := sp.Point()
	return err
}

// validateAdvise checks an advise spec: its group, its run count, and that
// no campaign-point field rides along with it.
func (sp JobSpec) validateAdvise() error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"layer", sp.Layer != ""}, {"app", sp.App != ""}, {"kernel", sp.Kernel != ""},
		{"structure", sp.Structure != ""}, {"mode", sp.Mode != ""}, {"hardened", sp.Hardened},
		{"harden", sp.Harden != nil}, {"deadline_sec", sp.Deadline != 0}, {"sampling", sp.Sampling != nil},
		{"checkpoint", sp.Checkpoint != nil}, {"fault", sp.Fault != nil},
	} {
		if f.set {
			return fmt.Errorf("an advise spec takes only advise, runs, seed, tenant and priority; got %q", f.name)
		}
	}
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

// ParseMode maps the wire name of a software injection mode ("" = SVF).
func ParseMode(name string) (softfi.Mode, error) {
	switch name {
	case "", softfi.SVF.String():
		return softfi.SVF, nil
	case softfi.SVFLD.String():
		return softfi.SVFLD, nil
	case softfi.SVFUse.String():
		return softfi.SVFUse, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want SVF|SVF-LD|SVF-USE)", name)
}

// JobState is the lifecycle of a job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether no further progress will happen.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// snapshotType is the event type of a stream's opening snapshot: "status",
// or the state's own name once terminal (the snapshot is then also the
// stream's terminal event).
func (s JobState) snapshotType() string {
	if s.Terminal() {
		return string(s)
	}
	return "status"
}

// AdviseProgress is the read-only "advise" group of an advise job's status:
// the advisor phase it is in, measurement progress, and — once reached —
// the plan and its verification.
type AdviseProgress struct {
	// Phase is the advisor phase: measure | search | verify | done.
	Phase string `json:"phase,omitempty"`
	// Measured counts the kernels whose vulnerability campaigns have landed
	// in the journal; Costed the protection subsets priced (all of them at
	// once: pricing is one unit).
	Measured int `json:"measured,omitempty"`
	Costed   int `json:"costed,omitempty"`
	// Plan and Verification appear as their phases complete; a terminal
	// "done" state always carries both.
	Plan         *advisor.Plan         `json:"plan,omitempty"`
	Verification *advisor.Verification `json:"verification,omitempty"`
}

// JobStatus is the API view of a job: its spec, lifecycle state, and the
// partial (or final) tally with the live 99%-confidence error margin of the
// paper's methodology. An advise job executes no runs of its own (its
// campaigns are child jobs), so its tally stays empty and its progress is
// the "advise" group.
type JobStatus struct {
	ID          string         `json:"id"`
	Spec        JobSpec        `json:"spec"`
	State       JobState       `json:"state"`
	Done        int            `json:"done"`  // runs merged into the contiguous prefix
	Total       int            `json:"total"` // == Spec.Runs (0 for an advise job)
	DoneRanges  []Range        `json:"done_ranges,omitempty"`
	Tally       campaign.Tally `json:"tally"`
	FR          float64        `json:"fr"`           // failure rate of the partial tally
	ErrMargin99 float64        `json:"err_margin99"` // normal-approx ±CI half-width at current n
	Margin99    float64        `json:"margin99"`     // Wilson-score ±CI half-width (honest at p=0/1)
	// Stashed counts runs executed (locally or by fleet workers) whose
	// tallies wait for an earlier gap to close before merging; InFlight
	// counts runs currently claimed by a lane chunk or an open lease.
	Stashed  int `json:"stashed,omitempty"`
	InFlight int `json:"in_flight,omitempty"`
	// EarlyStopped marks an adaptive job that met its margin target before
	// exhausting the run budget; RunsSaved is the unexecuted remainder.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	RunsSaved    int  `json:"runs_saved,omitempty"`
	// ForkResumes/ConvergeHits count the job's checkpoint-accelerated runs
	// (resumed from a golden snapshot / joined back to golden early).
	// Process-local and exact with one shard; with several shards,
	// concurrent jobs sharing an app's golden run may attribute each other's
	// hits. Not journaled: a restart restarts them at zero.
	ForkResumes  int64           `json:"fork_resumes,omitempty"`
	ConvergeHits int64           `json:"converge_hits,omitempty"`
	Advise       *AdviseProgress `json:"advise,omitempty"`
	Error        string          `json:"error,omitempty"`
	Created      int64           `json:"created_unix"`
	Started      int64           `json:"started_unix,omitempty"`
	Finished     int64           `json:"finished_unix,omitempty"`
}

// Event is one NDJSON line of a job's progress stream.
type Event struct {
	// Type: "status" (initial snapshot), "running" (the job left the queue:
	// a lane or a fleet lease claimed its first runs, or an advise job's
	// driver started; sent once, and only to streams that attached while it
	// was queued), "progress" (a chunk completed, or an advisor unit of
	// work), or a terminal state name ("done" | "failed" | "canceled").
	// Consumers should key on Job.State, as the client package does, and
	// ignore types they do not know.
	Type string    `json:"type"`
	Job  JobStatus `json:"job"`
}

// job is the scheduler-internal mutable state behind a JobStatus. Completed
// work lives in the prefix merger; the work ledger (pending/claimed ranges)
// is what local lanes and fleet leases claim from. An advise job has an
// empty ledger; its driver (advisejob.go) owns adv and stop instead.
type job struct {
	id      string
	spec    JobSpec
	created time.Time

	mu        sync.Mutex
	state     JobState
	merger    *campaign.PrefixMerger // ordered tally of the merged prefix
	pending   []Range                // normalized unclaimed run-ranges
	claimed   []Range                // claimed by a lane chunk or open lease
	early     bool                   // adaptive stop rule fired before the budget ran out
	forks     int64
	converges int64
	errmsg    string
	started   time.Time
	finished  time.Time
	canceled  bool
	events    *Hub[Event]

	adv  *advisor.State     // advise: state journaled after the last completed unit
	stop context.CancelFunc // advise: stops the running driver
}

// newJob builds a fresh job with its full run budget pending (none for an
// advise job).
func newJob(id string, spec JobSpec, created time.Time) *job {
	j := &job{
		id: id, spec: spec, created: created,
		state:  StateQueued,
		merger: campaign.NewPrefixMerger(),
		events: NewHub[Event](eventBuffer),
	}
	if spec.Advise == nil {
		j.pending = []Range{{From: 0, To: spec.Runs}}
	}
	return j
}

func (j *job) snapshotLocked() JobStatus {
	tally := j.merger.Tally()
	done := j.merger.To()
	st := JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Done:        done,
		Tally:       tally,
		FR:          tally.FR(),
		ErrMargin99: tally.ErrMargin99(),
		Margin99:    tally.Margin99(),
		Stashed:     j.merger.StashedRuns(),
		InFlight:    rangesLen(j.claimed),
		Error:       j.errmsg,
		Created:     j.created.Unix(),
	}
	if j.spec.Advise == nil {
		st.Total = j.spec.Runs
	} else {
		st.Advise = &AdviseProgress{}
		if a := j.adv; a != nil {
			*st.Advise = AdviseProgress{Phase: a.Phase, Measured: len(a.Measures), Costed: len(a.Overheads),
				Plan: a.Plan, Verification: a.Verification}
		}
	}
	if done > 0 {
		st.DoneRanges = []Range{{From: 0, To: done}}
	}
	if j.early {
		st.EarlyStopped = true
		st.RunsSaved = st.Total - st.Done
	}
	st.ForkResumes = j.forks
	st.ConvergeHits = j.converges
	if !j.started.IsZero() {
		st.Started = j.started.Unix()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Unix()
	}
	return st
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// publishLocked fans an event with the job's current status out to its
// stream subscribers (j.mu held, so events leave in state order).
func (j *job) publishLocked(typ string) {
	j.events.Publish(Event{Type: typ, Job: j.snapshotLocked()})
}
