package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/journal"
	"gpurel/internal/microfi"
)

// SourceFunc resolves a job spec to its injection experiment. The
// production source wraps *gpurel.Study (NewStudySource), which memoises
// golden runs so concurrent jobs against the same app share them; tests
// substitute synthetic experiments.
type SourceFunc func(spec JobSpec) (campaign.Experiment, error)

// Config sizes the scheduler.
type Config struct {
	// Source is required.
	Source SourceFunc
	// Shards is the number of independent job lanes; each lane executes
	// one job at a time, chunk by chunk (default 1). Jobs hash to a lane
	// by ID, so lane order is FIFO per lane.
	Shards int
	// WorkersPerShard bounds the campaign workers each lane uses inside a
	// chunk (default GOMAXPROCS). Total injection parallelism is bounded
	// by Shards × WorkersPerShard.
	WorkersPerShard int
	// ChunkSize is the run-range granularity of checkpoints and progress
	// events (default 100 runs).
	ChunkSize int
	// QueueDepth bounds each lane's backlog (default 256); Submit fails
	// once a lane is full.
	QueueDepth int
	// DisableLocalExec turns the lanes off: jobs make progress only through
	// ClaimWork/ReportWork — i.e. fleet workers. For dedicated coordinators
	// and scaling benchmarks; the default (false) degrades gracefully to
	// in-process execution when no workers are joined.
	DisableLocalExec bool
	// CheckpointPath, when set, enables the journal: jobs are persisted
	// there and incomplete ones resume on the next New with the same path.
	CheckpointPath string
	// CheckpointInterval is the periodic flush cadence (default 2s).
	CheckpointInterval time.Duration
	// Counters, when set, is the study-side sampling-efficiency aggregate
	// (simulated runs, liveness prune hits) shared with the experiment
	// source; /metrics exports it alongside the scheduler's own counters.
	Counters *adaptive.Counters
	// CheckpointStats, when set, reads the study-side fork-and-join
	// aggregate (checkpoint resumes, convergence joins); /metrics exports
	// it and the lanes attribute per-chunk deltas to the running job.
	CheckpointStats func() microfi.CheckpointCounts
	// Now is the scheduler's clock (default time.Now); tests inject a fake
	// for deterministic timestamps and deadline behavior.
	Now func() time.Time
	// AdviseBackend builds the measurement backend of each advise job
	// (default: the study stack, see studyAdviseBackend); tests substitute
	// synthetic tables.
	AdviseBackend AdviseBackendFactory
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = runtime.GOMAXPROCS(0)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 100
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.AdviseBackend == nil {
		c.AdviseBackend = studyAdviseBackend
	}
	return c
}

// starvedPoll is how often a lane re-checks a job whose pending list is
// empty but whose claimed/stashed work (held by fleet leases) is still
// outstanding.
const starvedPoll = 25 * time.Millisecond

// errQueueFull marks a submission rejected because the job's lane backlog is
// at capacity; the API maps it to 429 + ErrCodeQueueFull.
var errQueueFull = errors.New("job queue full")

// errShuttingDown marks a submission the draining scheduler refuses; the API
// maps it to 503 + ErrCodeUnavailable.
var errShuttingDown = errors.New("server is shutting down")

// Scheduler owns the job table, the work ledger, and the sharded lanes.
type Scheduler struct {
	cfg     Config
	metrics *Metrics

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing and within-tenant fairness
	// vtime is the weighted fair-share virtual time per active tenant — see
	// fairshare.go.
	vtime map[string]float64

	queues []chan *job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
	dirty  atomic.Bool
}

// NewScheduler builds a scheduler, resumes any incomplete jobs found in the
// checkpoint journal, and starts the worker lanes.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if cfg.Source == nil {
		return nil, fmt.Errorf("service: Config.Source is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		metrics: newMetrics(cfg.Counters, cfg.Now, cfg.CheckpointStats),
		jobs:    map[string]*job{},
		vtime:   map[string]float64{},
		queues:  make([]chan *job, cfg.Shards),
		ctx:     ctx,
		cancel:  cancel,
	}
	for i := range s.queues {
		s.queues[i] = make(chan *job, cfg.QueueDepth)
	}

	if cfg.CheckpointPath != "" {
		var saved checkpointFile
		if err := journal.Load(cfg.CheckpointPath, checkpointVersion, &saved); err != nil {
			cancel()
			return nil, err
		}
		var advises []*job
		for _, jc := range saved.Jobs {
			j := newJob(jc.ID, jc.Spec, time.Unix(jc.Created, 0))
			j.state = jc.State
			j.early = jc.EarlyStopped
			j.adv = jc.Advisor
			j.errmsg = jc.Error
			// The journal always covers a single prefix [0, k): completed
			// work only becomes durable once contiguous. (An older journal
			// with disjoint ranges would restart the job from scratch —
			// deterministic seeding makes that merely recomputation.)
			if done := normalizeRanges(jc.Done); len(done) == 1 && done[0].From == 0 {
				j.merger.Seed(done[0].To, jc.Tally)
			}
			if j.state.Terminal() || j.spec.Advise != nil {
				j.pending = nil
			} else {
				j.pending = complementRanges([]Range{{From: 0, To: j.merger.To()}}, jc.Spec.Runs)
			}
			// A job that was mid-flight when the previous process stopped
			// resumes from its first unexecuted run index — an advise job
			// from its last journaled unit of work, once the whole table
			// (its children included) is loaded.
			if j.state == StateRunning || j.state == StateQueued {
				j.state = StateQueued
				s.metrics.jobsResumed.Add(1)
				if j.spec.Advise != nil {
					advises = append(advises, j)
				} else {
					s.enqueue(j)
				}
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
		}
		for _, j := range advises {
			s.startAdvise(j)
		}
		// The scheduler's flush policy: on a ticker, while dirty.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			journal.FlushLoop(ctx.Done(), cfg.CheckpointInterval, &s.dirty, s.Flush)
		}()
	}

	s.metrics.AddCollector(s.writeTenantMetrics)
	for i := range s.queues {
		s.wg.Add(1)
		go s.shardLoop(s.queues[i])
	}
	return s, nil
}

// Metrics exposes the daemon counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// enqueue places a job on its lane. Must only be called with the job
// already in (or being added to) the table.
func (s *Scheduler) enqueue(j *job) bool {
	h := fnv.New32a()
	h.Write([]byte(j.id))
	q := s.queues[int(h.Sum32())%len(s.queues)]
	select {
	case q <- j:
		return true
	default:
		return false
	}
}

// Submit validates and enqueues a new job.
func (s *Scheduler) Submit(spec JobSpec) (JobStatus, error) {
	if s.closed.Load() {
		return JobStatus{}, errShuttingDown
	}
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	j, err := s.admit(NewID("j"), spec)
	if err != nil {
		return JobStatus{}, err
	}
	return j.snapshot(), nil
}

// admit adds a validated job to the table and starts it: a campaign job
// joins its lane's queue, an advise job gets its driver. An ID already in
// the table returns that job instead — a resumed advise re-requesting a
// journaled child. Table insert and enqueue happen under one s.mu hold, so a
// job its full lane rejects never enters the table, and Close (which sets
// closed under s.mu) never races a driver's wg.Add.
func (s *Scheduler) admit(id string, spec JobSpec) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	j := newJob(id, spec, s.cfg.Now())
	if spec.Advise != nil {
		s.startAdvise(j)
	} else if !s.enqueue(j) {
		return nil, fmt.Errorf("%w (depth %d)", errQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.metrics.jobsSubmitted.Add(1)
	s.dirty.Store(true)
	return j, nil
}

// Get returns a job's status.
func (s *Scheduler) Get(id string) (JobStatus, bool) {
	j, ok := s.job(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// List returns all jobs in submission order.
func (s *Scheduler) List() []JobStatus {
	js := s.jobsInOrder()
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		out = append(out, j.snapshot())
	}
	return out
}

// Cancel requests a job stop at the next chunk boundary — an advise job at
// once, its in-flight child with it; queued jobs are canceled immediately.
func (s *Scheduler) Cancel(id string) (JobStatus, bool) {
	j, ok := s.job(id)
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.canceled = true
		if j.stop != nil {
			j.stop()
		}
		if j.state == StateQueued {
			j.pending = nil
			j.claimed = nil
			s.finishLocked(j, StateCanceled, "")
		}
	}
	st := j.snapshotLocked()
	j.mu.Unlock()
	s.dirty.Store(true)
	return st, true
}

// job looks a job up by ID.
func (s *Scheduler) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// campaignJob looks up a job that owns run ranges: the work-ledger calls
// never reach an advise job.
func (s *Scheduler) campaignJob(id string) (*job, bool) {
	j, ok := s.job(id)
	return j, ok && j.spec.Advise == nil
}

// jobsInOrder copies the job table out in submission order.
func (s *Scheduler) jobsInOrder() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	return js
}

// stateGauges counts current jobs per state for /metrics.
func (s *Scheduler) stateGauges() map[string]int {
	g := map[string]int{}
	for _, st := range s.List() {
		g[string(st.State)]++
	}
	return g
}

// shardLoop is one lane: it executes queued jobs chunk by chunk until the
// scheduler shuts down.
func (s *Scheduler) shardLoop(q chan *job) {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-q:
			s.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state through the work ledger: claim
// a chunk, execute it, report the tally — the same three operations remote
// fleet workers use, so local lanes and leased workers interleave freely on
// one job. On drain the job is parked back to queued, its merged prefix
// journaled for the next process.
func (s *Scheduler) runJob(j *job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.canceled {
		j.pending = nil
		j.claimed = nil
		s.finishLocked(j, StateCanceled, "")
		j.mu.Unlock()
		s.dirty.Store(true)
		return
	}
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = s.cfg.Now()
		j.publishLocked(string(StateRunning))
	}
	spec := j.spec
	j.mu.Unlock()
	s.dirty.Store(true)

	if s.cfg.DisableLocalExec {
		// Coordinator-only mode: fleet workers drive the job through
		// ClaimWork/ReportWork; the lane has nothing to execute.
		return
	}

	fn, err := s.cfg.Source(spec)
	if err != nil {
		j.mu.Lock()
		j.pending = nil
		j.claimed = nil
		s.finishLocked(j, StateFailed, err.Error())
		j.mu.Unlock()
		s.dirty.Store(true)
		return
	}

	var deadline time.Time
	if spec.Deadline > 0 {
		deadline = s.cfg.Now().Add(time.Duration(spec.Deadline * float64(time.Second)))
	}
	opts := campaign.Options{Runs: spec.Runs, Seed: spec.Seed, Workers: s.cfg.WorkersPerShard}

	for {
		j.mu.Lock()
		if j.state.Terminal() {
			j.mu.Unlock()
			return
		}
		if j.canceled {
			j.pending = nil
			j.claimed = nil
			s.finishLocked(j, StateCanceled, "")
			j.mu.Unlock()
			s.dirty.Store(true)
			return
		}
		// Drain: stop between chunks, park the job for resume.
		if s.ctx.Err() != nil {
			j.state = StateQueued
			j.mu.Unlock()
			s.dirty.Store(true)
			return
		}
		if !deadline.IsZero() && s.cfg.Now().After(deadline) {
			j.pending = nil
			j.claimed = nil
			s.finishLocked(j, StateFailed, fmt.Sprintf("deadline exceeded (%gs)", spec.Deadline))
			j.mu.Unlock()
			s.dirty.Store(true)
			return
		}
		r, ok := s.claimLocked(j, s.cfg.ChunkSize)
		j.mu.Unlock()
		if !ok {
			// Nothing left to claim. Either the job is finishing (its last
			// reports are in flight from fleet leases) or it is fully
			// leased out — wait for reports or lease expiry to refill
			// pending, then re-check.
			select {
			case <-s.ctx.Done():
			case <-time.After(starvedPoll):
			}
			continue
		}
		s.dirty.Store(true)

		// Attribute checkpoint fork/converge activity to this job by
		// differencing the study-side aggregate around the chunk. Exact
		// with one shard; with several, a concurrent job against the
		// same app may be credited here instead — acceptable for an
		// efficiency indicator (the process totals stay exact).
		var ckBefore microfi.CheckpointCounts
		if s.cfg.CheckpointStats != nil {
			ckBefore = s.cfg.CheckpointStats()
		}
		tl := campaign.RunRange(opts, r.From, r.To, fn)
		var dForks, dConverges int64
		if s.cfg.CheckpointStats != nil {
			ckAfter := s.cfg.CheckpointStats()
			dForks = ckAfter.ForkResumes - ckBefore.ForkResumes
			dConverges = ckAfter.ConvergeHits - ckBefore.ConvergeHits
		}
		st, _ := s.report(j, r.From, r.To, tl, dForks, dConverges)
		if st.State.Terminal() {
			return
		}
	}
}

// finishLocked moves a job to a terminal state (j.mu held).
func (s *Scheduler) finishLocked(j *job, st JobState, errmsg string) {
	j.state = st
	j.errmsg = errmsg
	j.finished = s.cfg.Now()
	switch st {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	}
	j.publishLocked(string(st))
}

// Flush writes the checkpoint journal now. Only the merged contiguous
// prefix is durable: stashed out-of-order partials and claimed-but-unproven
// work are recomputed on resume (deterministic seeding makes that safe).
func (s *Scheduler) Flush() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	js := s.jobsInOrder()
	cps := make([]jobCheckpoint, 0, len(js))
	for _, j := range js {
		j.mu.Lock()
		var done []Range
		if to := j.merger.To(); to > 0 {
			done = []Range{{From: 0, To: to}}
		}
		cps = append(cps, jobCheckpoint{
			ID:           j.id,
			Spec:         j.spec,
			State:        j.state,
			Done:         done,
			Tally:        j.merger.Tally(),
			EarlyStopped: j.early,
			Advisor:      j.adv,
			Error:        j.errmsg,
			Created:      j.created.Unix(),
		})
		j.mu.Unlock()
	}
	return journal.Save(s.cfg.CheckpointPath, checkpointVersion, s.cfg.Now().Unix(), &checkpointFile{Jobs: cps})
}

// Close drains the scheduler: no new submissions, in-flight chunks finish,
// incomplete jobs are parked as queued, and the journal is flushed one last
// time. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	already := s.closed.Swap(true)
	s.mu.Unlock()
	if already {
		return nil
	}
	s.cancel()
	s.wg.Wait()
	return s.Flush()
}
