package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/service"
)

// WorkerConfig sizes one fleet worker.
type WorkerConfig struct {
	// ID names the worker in coordinator metrics (default random "w…").
	ID string
	// Client reaches the coordinator (required).
	Client *client.Client
	// Source resolves job specs to experiments, exactly like the
	// scheduler's own source (required). Each worker process builds its own
	// golden runs; determinism makes them interchangeable.
	Source service.SourceFunc
	// Chunk is the report granularity in runs (default 100): one HTTP
	// report — which doubles as a heartbeat — per chunk.
	Chunk int
	// Workers bounds the campaign goroutines inside a chunk (default
	// GOMAXPROCS).
	Workers int
	// MaxRuns caps the lease size requested (0 = coordinator default).
	MaxRuns int
	// Poll is the idle sleep between lease requests when the coordinator
	// has no work (default 250ms).
	Poll time.Duration
	// Backoff schedules HTTP retries (zero value = client defaults:
	// 5 tries, 100ms base, 5s cap, full jitter).
	Backoff client.Backoff
	// Caps is the worker's static capability report (snapshot budget,
	// supported fault models). RunsPerSec is usually left zero: the first
	// chunk the worker executes measures it, and later chunks refine it.
	Caps service.WorkerCaps
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		c.ID = service.NewID("w")
	}
	if c.Chunk <= 0 {
		c.Chunk = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	return c
}

// Worker pulls leases from a coordinator and executes them through the
// deterministic campaign path. Run i of a job draws from
// rand.NewSource(Seed+i) here exactly as it would on the coordinator, so
// where a run executes never shows in the tally.
type Worker struct {
	cfg WorkerConfig

	// runs counts runs this worker executed (reported or not).
	runs atomic.Int64
	// rps is the live throughput estimate in runs/sec (Float64bits),
	// seeded by the first chunk and refined per chunk (EWMA). It rides every
	// lease request so the coordinator's adaptive sizing tracks reality.
	rps atomic.Uint64
}

// NewWorker validates the config.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("fleet: WorkerConfig.Client is required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("fleet: WorkerConfig.Source is required")
	}
	return &Worker{cfg: cfg.withDefaults()}, nil
}

// ID returns the worker's name.
func (w *Worker) ID() string { return w.cfg.ID }

// Runs returns the number of runs executed so far.
func (w *Worker) Runs() int64 { return w.runs.Load() }

// RunsPerSec returns the current throughput estimate (0 = none yet).
func (w *Worker) RunsPerSec() float64 { return math.Float64frombits(w.rps.Load()) }

// observeThroughput folds one chunk's measured rate into the EWMA estimate.
func (w *Worker) observeThroughput(runs int, elapsed time.Duration) {
	if runs <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(runs) / elapsed.Seconds()
	for {
		old := w.rps.Load()
		cur := math.Float64frombits(old)
		next := sample
		if cur > 0 {
			const alpha = 0.3
			next = alpha*sample + (1-alpha)*cur
		}
		if w.rps.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Run pulls and executes leases until ctx ends (the drain path: any open
// lease's unexecuted remainder is returned to the coordinator and the
// worker announces its departure) or the coordinator stays unreachable past
// the retry budget. At startup the worker registers its capability report
// — best-effort, so it still interoperates with coordinators predating the
// registry.
func (w *Worker) Run(ctx context.Context) error {
	if w.cfg.Caps.RunsPerSec > 0 {
		w.rps.Store(math.Float64bits(w.cfg.Caps.RunsPerSec))
	}
	w.register(ctx)
	defer w.drainAnnounce()
	for {
		if ctx.Err() != nil {
			return nil
		}
		var ls service.Lease
		var granted bool
		err := client.Retry(ctx, w.cfg.Backoff, func() error {
			var lerr error
			ls, granted, lerr = w.cfg.Client.Lease(ctx, service.LeaseRequest{
				Worker: w.cfg.ID, MaxRuns: w.cfg.MaxRuns, RunsPerSec: w.RunsPerSec(),
			})
			return lerr
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("fleet worker %s: coordinator unreachable: %w", w.cfg.ID, err)
		}
		if !granted {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.cfg.Poll):
			}
			continue
		}
		w.execute(ctx, ls)
	}
}

// execute runs one lease chunk by chunk, reporting each chunk's tally (the
// report refreshes the lease deadline). A lease the coordinator no longer
// recognises — expired while we were slow — is abandoned: its remainder was
// requeued, and our earlier reports already merged.
func (w *Worker) execute(ctx context.Context, ls service.Lease) {
	fn, err := w.cfg.Source(ls.Spec)
	if err != nil {
		// This worker cannot execute the spec (unknown app in its binary?):
		// hand the whole lease back rather than stall it until expiry.
		w.returnLease(ls.ID)
		return
	}

	// Heartbeat in the background at a third of the TTL, covering chunks
	// that legitimately run longer than the lease deadline.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	gone := make(chan struct{})
	go w.heartbeat(hbCtx, ls, gone)

	opts := campaign.Options{Runs: ls.Spec.Runs, Seed: ls.Spec.Seed, Workers: w.cfg.Workers}
	for from := ls.From; from < ls.To; {
		if ctx.Err() != nil {
			// Drain: return the unexecuted remainder so the coordinator
			// requeues it immediately instead of waiting out the TTL.
			w.returnLease(ls.ID)
			return
		}
		select {
		case <-gone:
			return
		default:
		}
		to := from + w.cfg.Chunk
		if to > ls.To {
			to = ls.To
		}
		start := time.Now() //relint:allow wallclock: throughput telemetry only, never feeds a tally
		tl := campaign.RunRange(opts, from, to, fn)
		w.observeThroughput(to-from, time.Since(start)) //relint:allow wallclock: see above
		w.runs.Add(int64(to - from))

		rep := service.LeaseReport{Worker: w.cfg.ID, From: from, To: to, Tally: tl, Done: to >= ls.To}
		var ack service.LeaseAck
		var leaseGone bool
		err := client.Retry(ctx, w.cfg.Backoff, func() error {
			var rerr error
			ack, rerr = w.cfg.Client.ReportLease(ctx, ls.ID, rep)
			if errors.Is(rerr, client.ErrGone) {
				leaseGone = true // terminal for the lease, not worth retrying
				return nil
			}
			return rerr
		})
		if err != nil {
			if ctx.Err() != nil {
				// Drain arrived mid-report: hand back everything the
				// coordinator hasn't acknowledged. The just-executed chunk may
				// re-run elsewhere; the merge is idempotent and deterministic.
				w.returnLease(ls.ID)
			}
			// Otherwise the coordinator stayed unreachable past the retry
			// budget: abandon, the unreported remainder expires and requeues.
			return
		}
		if leaseGone || ack.Canceled {
			// Lease expired-and-requeued, or job terminal: nothing left to
			// drain; earlier reports already merged.
			return
		}
		from = to
	}
}

// heartbeat extends the lease deadline at TTL/3 until canceled; a Gone
// answer closes the gone channel so execute stops wasting cycles.
func (w *Worker) heartbeat(ctx context.Context, ls service.Lease, gone chan struct{}) {
	ttl := time.Duration(ls.TTLSec * float64(time.Second))
	if ttl <= 0 {
		return
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := w.cfg.Client.HeartbeatLease(ctx, ls.ID); errors.Is(err, client.ErrGone) {
				close(gone)
				return
			}
		}
	}
}

// returnLease hands a lease back outside the run context (the run ctx may
// already be canceled during drain) with a short deadline of its own.
func (w *Worker) returnLease(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.cfg.Client.ReturnLease(ctx, id) //nolint:errcheck — best effort; expiry requeues anyway
}

// register announces the worker and its capability report. Best-effort: a
// coordinator without the registry (pre-v1 fleet) answers 404, and the
// worker proceeds on the lease protocol alone — lease traffic auto-registers
// it as an anonymous entry anyway.
func (w *Worker) register(ctx context.Context) {
	spec := service.WorkerSpec{Name: w.cfg.ID, Caps: w.cfg.Caps}
	spec.Caps.RunsPerSec = w.RunsPerSec()
	w.cfg.Client.RegisterWorker(ctx, spec) //nolint:errcheck — advisory; older coordinators lack the route
}

// drainAnnounce marks the worker draining in the registry on shutdown, with
// a short deadline of its own (the run ctx is already canceled).
func (w *Worker) drainAnnounce() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.cfg.Client.DrainWorker(ctx, w.cfg.ID) //nolint:errcheck — best effort; heartbeat decay degrades it anyway
}
