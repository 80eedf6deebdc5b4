// Command gpureld is the campaign daemon: a long-running fault-injection
// job server over the study's simulators. It accepts AVF/SVF campaign specs
// and selective-hardening advise specs on an HTTP API, executes them on
// in-process executors that claim work by weighted fair share, with shared
// golden-run memoisation, journals progress to a checkpoint file, and
// resumes incomplete jobs bit-identically after a restart.
//
// The same binary is both halves of a worker fleet. As a coordinator it
// additionally serves run-range leases (POST /v1/leases) that remote
// workers pull and execute; with no workers joined it simply executes
// everything in-process. As a worker it joins a coordinator and executes
// leases through the identical deterministic campaign path:
//
//	gpureld -addr :8080 -checkpoint gpureld.ckpt.json   # coordinator (and local executor)
//	gpureld -addr :8080 -no-local                       # coordinator only: fleet does the work
//	gpureld -worker -join http://coord:8080             # worker: pull leases until SIGTERM
//
// API (see docs/service.md):
//
//	POST   /v1/jobs             {"layer":"micro","app":"VA","kernel":"K1","structure":"RF","runs":3000,"seed":1}
//	                            micro jobs take a nested "fault" group selecting
//	                            the fault model (transient/stuck/mbu/control);
//	                            absent = transient single-bit
//	POST   /v1/jobs             {"advise":{"app":"SRADv1","budget":0.005},"runs":3000,"seed":1}
//	                            selective-hardening advisor: measure, search,
//	                            verify, its campaigns run as child jobs;
//	                            status carries the plan + verification
//	GET    /v1/jobs/{id}        status + partial tally + live ErrMargin99
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/leases           worker lease grant (coordinator); adaptively
//	                            sized from the worker's measured runs/sec
//	POST   /v1/workers          worker registration with capability report
//	GET    /v1/workers          registry listing with derived health states
//	DELETE /v1/workers/{name}   mark a worker draining (no further leases)
//	GET    /v1/fleet            control-plane summary: workers, tenants, leases
//	GET    /v1/fleet/events     NDJSON fleet-status stream
//	GET    /metrics             Prometheus text format (incl. per-worker fleet counters)
//
// Errors on every /v1 route share one envelope: {"error":{"code","message"}}.
//
// Jobs may carry "tenant" and "priority" (an advise job's children inherit
// them): the scheduler hands out work (to its executors and fleet leases
// alike) by deterministic weighted fair-share across tenants, so no tenant
// starves and single-tenant workloads schedule exactly as before.
//
// The coordinator journals its lease ledger and worker registry to
// -fleet-checkpoint through the same internal/journal as the job
// checkpoint, so a killed coordinator resumes mid-campaign with
// bit-identical final tallies.
//
// On SIGINT/SIGTERM a coordinator drains: in-flight run-range chunks
// finish, incomplete jobs are parked and checkpointed, and the HTTP
// listener shuts down gracefully. A worker drains by returning the
// unexecuted remainder of its open lease to the coordinator, which requeues
// it immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/cliutil"
	"gpurel/internal/fleet"
	"gpurel/internal/microfi"
	"gpurel/internal/service"
)

// Front-door timeouts: a client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout.
// There is deliberately no WriteTimeout — the NDJSON event streams are
// long-lived responses. Request bodies are capped by service.MaxBodyBytes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its process state made explicit: the daemon configured
// by args serves until ctx is done (SIGINT/SIGTERM in main), then drains.
// The log goes to stderr, the farewell to stdout, and the exit status is
// returned.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpureld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address (coordinator mode)")
		ckpt     = fs.String("checkpoint", "gpureld.ckpt.json", "checkpoint journal path ('' disables persistence)")
		interval = fs.Duration("checkpoint-interval", 2*time.Second, "periodic checkpoint flush cadence")
		shards   = fs.Int("shards", 1, "in-process executors, each claiming chunks from the fair-share ledger like a fleet worker")
		workers  = fs.Int("workers", 0, "campaign workers per executor (0 = GOMAXPROCS)")
		chunk    = fs.Int("chunk", 100, "runs per checkpointable chunk")
		seed     = fs.Int64("seed", 1, "base seed of the shared study (golden-run cache)")
		// Fleet knobs.
		workerMode = fs.Bool("worker", false, "run as a fleet worker: pull run-range leases from -join instead of serving HTTP")
		join       = fs.String("join", "", "coordinator base URL for -worker, e.g. http://coord:8080")
		workerID   = fs.String("worker-id", "", "worker name in coordinator metrics (default random)")
		noLocal    = fs.Bool("no-local", false, "coordinator only: disable in-process execution, jobs progress solely through worker leases")
		leaseRuns  = fs.Int("lease-runs", 500, "max runs granted per worker lease (adaptive sizing never exceeds this)")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "lease heartbeat deadline; expired leases are requeued")
		leaseSec   = fs.Float64("lease-sec", 2, "adaptive lease horizon: seconds of work granted per lease to workers with a measured throughput")
		fleetCkpt  = fs.String("fleet-checkpoint", "gpureld.fleet.json", "fleet journal path: leases + worker registry survive a coordinator restart ('' disables)")
	)
	prof := cliutil.Profiling(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fatal := func(err error) int {
		logger.Printf("gpureld: %v", err)
		return 1
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fatal(err)
	}
	defer stopProf()

	// The daemon's study exists for its golden-run memoisation; campaign
	// sizing and seeds come from each job spec, and jobs without a
	// "checkpoint" group fork and join by the study default. The adaptive
	// counters are shared between the study (which increments them as
	// experiments run) and the scheduler's /metrics exporter.
	counters := &adaptive.Counters{}
	study := gpurel.NewStudy(0, *seed)
	study.Counters = counters
	source := service.NewStudySource(study)

	if *workerMode {
		return runWorker(ctx, logger, source, *join, *workerID, *chunk, *workers, *leaseRuns)
	}

	sched, err := service.NewScheduler(service.Config{
		Source:             source,
		Shards:             *shards,
		WorkersPerShard:    *workers,
		ChunkSize:          *chunk,
		DisableLocalExec:   *noLocal,
		CheckpointPath:     *ckpt,
		CheckpointInterval: *interval,
		Counters:           counters,
		CheckpointStats:    study.CheckpointCounts,
	})
	if err != nil {
		return fatal(err)
	}
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		LeaseRuns:      *leaseRuns,
		LeaseTTL:       *leaseTTL,
		TargetLeaseSec: *leaseSec,
		JournalPath:    *fleetCkpt,
	})
	if err != nil {
		sched.Close()
		return fatal(err)
	}
	sched.Metrics().AddCollector(coord.WriteMetrics)

	srv := &http.Server{
		Handler:           service.NewServer(sched).Handler(coord.Mount),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		coord.Close()
		sched.Close()
		return fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		mode := "local+fleet"
		if *noLocal {
			mode = "fleet-only"
		}
		logger.Printf("gpureld: listening on %s (checkpoint %q, %d executor(s) × %d worker(s), chunk %d, exec %s)",
			ln.Addr(), *ckpt, *shards, *workers, *chunk, mode)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			coord.Close()
			sched.Close()
			return fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("gpureld: signal received, draining (in-flight chunks finish, then checkpoint flush)")
	}

	// Drain order: stop granting leases (journaled coordinators flush the
	// lease ledger for the next process; unjournaled ones requeue it), drain
	// the scheduler (finishes in-flight chunks, parks the rest — advise jobs
	// and their children included — flushes the checkpoint, unblocks open
	// event streams), then shut the listener down gracefully.
	if err := coord.Close(); err != nil {
		logger.Printf("gpureld: fleet journal flush: %v", err)
	}
	closeErr := sched.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("gpureld: http shutdown: %v", err)
	}
	if closeErr != nil {
		logger.Printf("gpureld: checkpoint flush: %v", closeErr)
		return 1
	}
	fmt.Fprintln(stdout, "gpureld: drained and checkpointed, bye")
	return 0
}

// runWorker joins a coordinator and executes leases until ctx is done; the
// drain path returns the open lease's unexecuted remainder so the
// coordinator requeues it without waiting out the TTL.
func runWorker(ctx context.Context, logger *log.Logger, source service.SourceFunc, join, id string, chunk, campaignWorkers, maxRuns int) int {
	if join == "" {
		logger.Print("gpureld: -worker requires -join <coordinator URL>")
		return 1
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:      id,
		Client:  client.New(join),
		Source:  source,
		Chunk:   chunk,
		Workers: campaignWorkers,
		MaxRuns: maxRuns,
		// The snapshot budget of the study default's golden runs.
		Caps: service.WorkerCaps{SnapMB: microfi.DefaultCheckpointBudget >> 20},
	})
	if err != nil {
		logger.Printf("gpureld: %v", err)
		return 1
	}
	logger.Printf("gpureld: worker %s joined %s (chunk %d)", w.ID(), join, chunk)
	if err := w.Run(ctx); err != nil {
		logger.Printf("gpureld: %v", err)
		return 1
	}
	logger.Printf("gpureld: worker %s drained after %d runs, bye", w.ID(), w.Runs())
	return 0
}
