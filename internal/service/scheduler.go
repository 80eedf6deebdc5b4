package service

import (
	"context"
	"errors"
	"fmt"
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
	// Shards is the number of in-process executors (default 1). Each one
	// claims a chunk from the fair-share ledger, runs it and reports it, as
	// a fleet worker does with a lease.
	Shards int
	// WorkersPerShard bounds the campaign workers each executor uses inside
	// a chunk (default GOMAXPROCS). Total injection parallelism is bounded
	// by Shards × WorkersPerShard.
	WorkersPerShard int
	// ChunkSize is the run-range granularity of checkpoints and progress
	// events (default 100 runs).
	ChunkSize int
	// QueueDepth bounds the submitted campaign jobs waiting in state queued
	// (default 256); Submit fails while that many wait. Advise children
	// are admitted outside the bound.
	QueueDepth int
	// DisableLocalExec starts no executors: jobs make progress only through
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
	// it and the executors attribute per-chunk deltas to the job they ran.
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

// errQueueFull marks a submission rejected because QueueDepth submitted jobs
// are already waiting; the API maps it to 429 + ErrCodeQueueFull.
var errQueueFull = errors.New("job queue full")

// errShuttingDown marks a submission the draining scheduler refuses; the API
// maps it to 503 + ErrCodeUnavailable.
var errShuttingDown = errors.New("server is shutting down")

// Scheduler owns the job table, the work ledger, and the in-process
// executors.
type Scheduler struct {
	cfg     Config
	metrics *Metrics

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing, the journal and status
	// live indexes the jobs not yet terminal, campaign and advise, in
	// submission order: the only jobs a claim can reach. A job enters with
	// its table entry and leaves at the first claim plan that sees it
	// terminal (fairshare.go), so a claim costs O(live jobs), however many
	// finished jobs stay resident.
	live []*job
	// vtime is the weighted fair-share virtual time per active tenant — see
	// fairshare.go.
	vtime map[string]float64

	// waiting counts the submitted jobs still queued (job.waiting), for
	// QueueDepth; wake rouses an idle executor when work may be claimable.
	waiting atomic.Int64
	wake    chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
	dirty  atomic.Bool
}

// NewScheduler builds a scheduler, resumes any incomplete jobs found in the
// checkpoint journal, and starts the executors.
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
		wake:    make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
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
			// resumes from its first unexecuted run index, its deadline
			// starting over — an advise job from its last journaled unit of
			// work, once the whole table (its children included) is loaded.
			if j.state == StateRunning || j.state == StateQueued {
				j.state = StateQueued
				j.due = jc.Spec.dueFrom(cfg.Now())
				s.metrics.jobsResumed.Add(1)
				if j.spec.Advise != nil {
					advises = append(advises, j)
				}
			}
			s.enterLocked(j)
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
	if !cfg.DisableLocalExec {
		for i := 0; i < cfg.Shards; i++ {
			s.wg.Add(1)
			go s.execute()
		}
	}
	return s, nil
}

// Metrics exposes the daemon counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Submit validates and admits a new job, within QueueDepth.
func (s *Scheduler) Submit(spec JobSpec) (JobStatus, error) {
	if s.closed.Load() {
		return JobStatus{}, errShuttingDown
	}
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	j, err := s.admit(NewID("j"), spec, true)
	if err != nil {
		return JobStatus{}, err
	}
	return j.snapshot(), nil
}

// admit adds a validated job to the table and starts it: a campaign job
// wakes an executor, an advise job gets its driver. A bounded campaign job
// counts against QueueDepth until it leaves state queued. An ID already in
// the table returns that job instead — a resumed advise re-requesting a
// journaled child. The bound check and the table insert happen under one
// s.mu hold, so a refused job never enters the table, and Close (which sets
// closed under s.mu) never races a driver's wg.Add.
func (s *Scheduler) admit(id string, spec JobSpec, bounded bool) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	j := newJob(id, spec, s.cfg.Now())
	if spec.Advise == nil && bounded && s.waiting.Load() >= int64(s.cfg.QueueDepth) {
		return nil, fmt.Errorf("%w (depth %d)", errQueueFull, s.cfg.QueueDepth)
	}
	s.enterLocked(j)
	if spec.Advise != nil {
		s.startAdvise(j)
	} else {
		if j.waiting = bounded; bounded {
			s.waiting.Add(1)
		}
		s.signal()
	}
	s.metrics.jobsSubmitted.Add(1)
	s.dirty.Store(true)
	return j, nil
}

// enterLocked adds a job no other goroutine holds yet to the table, the
// submission order and, unless it is already terminal (restored so from the
// journal), the live index (s.mu held, or before the scheduler is shared).
func (s *Scheduler) enterLocked(j *job) {
	j.seq = len(s.order)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if !j.state.Terminal() {
		s.live = append(s.live, j)
	}
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

// Cancel settles a campaign job as canceled at once: chunks and leases still
// running report into a terminal job, so their tallies are dropped. An
// advise job is stopped through its driver, its in-flight child with it,
// and settles as the driver returns (at once if the driver has not started).
func (s *Scheduler) Cancel(id string) (JobStatus, bool) {
	j, ok := s.job(id)
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		if j.stop != nil {
			j.canceled = true
			j.stop()
		}
		if j.spec.Advise == nil || j.state == StateQueued {
			s.finishLocked(j, StateCanceled, "")
		}
	}
	st := j.snapshotLocked()
	j.mu.Unlock()
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

// stateGauges counts current jobs per state for /metrics, each read under
// its own lock.
func (s *Scheduler) stateGauges() map[string]int {
	g := map[string]int{}
	for _, j := range s.jobsInOrder() {
		j.mu.Lock()
		g[string(j.state)]++
		j.mu.Unlock()
	}
	return g
}

// signal wakes one idle executor; a no-op when a wake-up is already due.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// execute is one in-process executor: it claims a chunk from the ledger,
// runs it and reports it — the three calls a fleet worker makes — until the
// scheduler drains. An idle executor sleeps until admit or ReturnWork
// signals new work.
func (s *Scheduler) execute() {
	defer s.wg.Done()
	for {
		w, ok := s.ClaimWork(s.cfg.ChunkSize)
		if !ok {
			select {
			case <-s.ctx.Done():
				return
			case <-s.wake:
			}
			continue
		}
		// Pass the wake-up on: the ledger may hold a chunk for another idle
		// executor.
		s.signal()
		s.runChunk(w)
	}
}

// runChunk executes one claimed chunk and reports its tally; a spec the
// source cannot resolve fails the job.
func (s *Scheduler) runChunk(w WorkAssignment) {
	j, ok := s.campaignJob(w.JobID)
	if !ok {
		return
	}
	fn, err := s.cfg.Source(w.Spec)
	if err != nil {
		j.mu.Lock()
		if !j.state.Terminal() {
			s.finishLocked(j, StateFailed, err.Error())
		}
		j.mu.Unlock()
		return
	}
	// Attribute checkpoint fork/converge activity to this job by
	// differencing the study-side aggregate around the chunk. Exact with
	// one executor; with several, a concurrent chunk against the same app
	// may be credited here instead — acceptable for an efficiency
	// indicator (the process totals stay exact).
	var ckBefore microfi.CheckpointCounts
	if s.cfg.CheckpointStats != nil {
		ckBefore = s.cfg.CheckpointStats()
	}
	opts := campaign.Options{Runs: w.Spec.Runs, Seed: w.Spec.Seed, Workers: s.cfg.WorkersPerShard}
	tl := campaign.RunRange(opts, w.From, w.To, fn)
	var dForks, dConverges int64
	if s.cfg.CheckpointStats != nil {
		ckAfter := s.cfg.CheckpointStats()
		dForks = ckAfter.ForkResumes - ckBefore.ForkResumes
		dConverges = ckAfter.ConvergeHits - ckBefore.ConvergeHits
	}
	s.report(j, w.From, w.To, tl, dForks, dConverges)
}

// finishLocked moves a job to a terminal state, dropping its unexecuted and
// in-flight runs (j.mu held). A done job also releases its merger's stash:
// past a full prefix it is empty, past an adaptive stop its runs are not
// wanted, and no report is offered to a terminal job.
//
// Terminal is forever: nothing moves a job out of a terminal state (a drain
// parks only unfinished jobs, a resumed journal re-queues only unfinished
// ones). That is what lets the claim plan drop a terminal job from the live
// index for good.
func (s *Scheduler) finishLocked(j *job, st JobState, errmsg string) {
	s.leaveQueueLocked(j)
	j.state = st
	j.errmsg = errmsg
	j.finished = s.cfg.Now()
	j.pending = nil
	j.claimed = nil
	if st == StateDone {
		j.merger.DropStash()
	}
	s.dirty.Store(true)
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

// leaveQueueLocked releases a submitted job's QueueDepth slot as it leaves
// state queued (j.mu held).
func (s *Scheduler) leaveQueueLocked(j *job) {
	if j.waiting {
		j.waiting = false
		s.waiting.Add(-1)
	}
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

// Close drains the scheduler: no new submissions or claims, the executors
// stop once their in-flight chunks have reported, advise drivers park their
// jobs, every other unfinished job is parked as queued, and the journal is
// flushed one last time. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	already := s.closed.Swap(true)
	s.mu.Unlock()
	if already {
		return nil
	}
	s.cancel()
	s.wg.Wait()
	for _, j := range s.jobsInOrder() {
		j.mu.Lock()
		if j.spec.Advise == nil && !j.state.Terminal() {
			j.state = StateQueued
		}
		j.mu.Unlock()
	}
	return s.Flush()
}
