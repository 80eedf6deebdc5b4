package microfi

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// Checkpointed fork-and-join injection (the gpuFI-4 successor technique):
// the golden run captures machine snapshots at a cycle stride, each faulty
// run forks from the nearest snapshot below its injection cycle instead of
// replaying the fault-free prefix, and — when convergence detection is on —
// joins back to golden as soon as its complete machine state matches a
// golden checkpoint, adopting the golden suffix as its outcome. Both paths
// are bit-identical to brute-force Inject for every (seed, run) pair: the
// prefix a fork skips is by construction the golden prefix, and a joined
// run's continuation is the deterministic image of a state equal to
// golden's (see internal/sim/snapshot.go and docs/perf.md).

const (
	// AutoStride, as a CheckpointSpec.Stride, derives the stride from the
	// golden run length so about DefaultSnapshots checkpoints are taken.
	AutoStride = -1
	// DefaultSnapshots is the checkpoint count AutoStride aims for.
	DefaultSnapshots = 24
	// DefaultCheckpointBudget is the snapshot memory budget applied when a
	// spec leaves BudgetBytes zero.
	DefaultCheckpointBudget = 256 << 20
)

// DefaultCheckpoint is how every front end builds its golden runs: about
// DefaultSnapshots checkpoints within DefaultCheckpointBudget, and faulty
// runs that join golden again at the first matching one. The zero
// CheckpointSpec — brute force — is the reference path it is checked
// against.
var DefaultCheckpoint = CheckpointSpec{Stride: AutoStride, Converge: true}

// CheckpointSpec configures checkpointed injection for a golden run. An
// enabled spec is the whole accelerated path: front ends also prune
// (InjectStatic) the targets that can be pruned (Target.Prunable), and only
// the disabled spec, brute force, simulates every run.
type CheckpointSpec struct {
	// Stride is the snapshot interval in cycles: 0 disables checkpointing,
	// negative (AutoStride) derives an interval targeting DefaultSnapshots
	// checkpoints.
	Stride int64 `json:"stride,omitempty"`
	// BudgetBytes bounds retained snapshot memory; the stride auto-widens
	// (evicting off-grid snapshots) to fit. 0 applies
	// DefaultCheckpointBudget; negative means unlimited.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Converge enables early convergence detection on faulty runs.
	Converge bool `json:"converge,omitempty"`
}

// Enabled reports whether the spec turns checkpointing on.
func (c CheckpointSpec) Enabled() bool { return c.Stride != 0 }

// NewCheckpointSpec builds a spec from the three values of the wire's
// "checkpoint" group: the budget arrives in MiB, and converge alone implies
// AutoStride.
func NewCheckpointSpec(stride, budgetMB int64, converge bool) CheckpointSpec {
	if converge && stride == 0 {
		stride = AutoStride
	}
	return CheckpointSpec{Stride: stride, BudgetBytes: budgetMB << 20, Converge: converge}
}

// CheckpointCounts reports the work a golden run's checkpoints saved.
type CheckpointCounts struct {
	// ForkResumes counts faulty runs resumed from a checkpoint;
	// ForkCyclesSaved sums the golden-prefix cycles those resumes skipped.
	ForkResumes     int64 `json:"fork_resumes"`
	ForkCyclesSaved int64 `json:"fork_cycles_saved"`
	// ConvergeHits counts faulty runs that joined back to golden;
	// ConvergeCyclesSaved sums the suffix cycles not simulated.
	ConvergeHits        int64 `json:"converge_hits"`
	ConvergeCyclesSaved int64 `json:"converge_cycles_saved"`
	// ConvergeDisabled counts faulty runs where the spec requested converge
	// joins but the armed fault model is persistent, so the join probe was
	// withheld: state equality with a fault-free checkpoint does not imply
	// an identical continuation while the defect keeps acting.
	ConvergeDisabled int64 `json:"converge_disabled,omitempty"`
	// Snapshot inventory: retained count and bytes, and snapshots evicted
	// by budget-driven stride widening.
	Snapshots     int64 `json:"snapshots"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	Evictions     int64 `json:"evictions"`
}

// Add accumulates o into c (aggregation across apps/goldens).
func (c *CheckpointCounts) Add(o CheckpointCounts) {
	c.ForkResumes += o.ForkResumes
	c.ForkCyclesSaved += o.ForkCyclesSaved
	c.ConvergeHits += o.ConvergeHits
	c.ConvergeCyclesSaved += o.ConvergeCyclesSaved
	c.ConvergeDisabled += o.ConvergeDisabled
	c.Snapshots += o.Snapshots
	c.SnapshotBytes += o.SnapshotBytes
	c.Evictions += o.Evictions
}

// GoldenCheckpointed runs the job fault-free like Golden, additionally
// capturing machine snapshots per spec so subsequent Inject* calls on the
// returned GoldenRun fork from checkpoints (and, when spec.Converge is set,
// join back to golden early). With a disabled spec it is exactly Golden.
func GoldenCheckpointed(job *device.Job, cfg gpu.Config, spec CheckpointSpec) (*GoldenRun, error) {
	if !spec.Enabled() {
		return Golden(job, cfg)
	}
	stride := spec.Stride
	if stride < 0 {
		// Probe run to size the stride; deterministic, so the checkpointed
		// run below replays it exactly.
		probe, err := Golden(job, cfg)
		if err != nil {
			return nil, err
		}
		stride = probe.Res.Cycles / DefaultSnapshots
		if stride < 1 {
			stride = 1
		}
	}
	budget := spec.BudgetBytes
	if budget == 0 {
		budget = DefaultCheckpointBudget
	} else if budget < 0 {
		budget = 0 // sim.SnapshotSet: <=0 = unlimited
	}
	snaps := sim.NewSnapshotSet(stride, budget)
	res := sim.Run(job, cfg, sim.Options{MaxCycles: goldenCycleBudget(job), Checkpoint: snaps})
	if err := vetGolden(res); err != nil {
		return nil, err
	}
	return &GoldenRun{Res: res, Cfg: cfg, Snaps: snaps, Ckpt: spec, pool: sim.NewRunPool()}, nil
}

// vetGolden rejects a reference run that is not usable as golden.
func vetGolden(res *sim.Result) error {
	switch {
	case res.Err != nil:
		return fmt.Errorf("golden run failed: %w", res.Err)
	case res.TimedOut:
		return fmt.Errorf("golden run timed out")
	case res.DUEFlag:
		return fmt.Errorf("golden run raised the DUE flag")
	}
	return nil
}

// GoldenCyclesPerStep is the golden run's cycle allowance per schedule step.
// The largest shipped app finishes a step in well under 2^16 cycles; 2^20
// leaves orders-of-magnitude headroom while still bounding a pathological
// job (e.g. a kernel spinning forever) that would otherwise hang the golden
// run, which has no TimeoutFactor budget to fall back on.
const GoldenCyclesPerStep = 1 << 20

// goldenCycleBudget bounds the fault-free run from the job's schedule-step
// budget.
func goldenCycleBudget(job *device.Job) int64 {
	return int64(job.MaxScheduleSteps()) * GoldenCyclesPerStep
}

// accelerate arms opts with the checkpoint machinery for a faulty run that
// injects at the given cycle: resume from the latest snapshot strictly below
// the injection cycle (the hook fires at the top of a cycle, snapshots
// capture its end), converge probing when enabled, and machine-state reuse
// through the run pool. No-op on a plain Golden run.
//
// Fork-resume stays sound for persistent faults (the skipped prefix is
// fault-free in both runs), but convergence joins are not: the probe
// compares post-fault state to fault-free golden checkpoints, and while the
// fault remains armed an exact state match does not imply an identical
// continuation — the defect corrupts the joined suffix too. The join probe
// is therefore withheld for persistent models even when the spec requests
// it, and each such auto-disable is counted in
// CheckpointCounts.ConvergeDisabled so operators can see the spec was
// overridden and why throughput dropped.
func (g *GoldenRun) accelerate(opts *sim.Options, cycle int64, persistent bool) {
	if g.Snaps == nil {
		return
	}
	if s := g.Snaps.Before(cycle); s != nil {
		opts.Resume = s
		g.forkResumes.Add(1)
		g.forkCyclesSaved.Add(s.Cycle())
	}
	if g.Ckpt.Converge {
		if persistent {
			g.convergeDisabled.Add(1)
		} else {
			opts.Converge = g.Snaps
		}
	}
	opts.Pool = g.pool
}

// classifyConverged classifies a run that joined back to golden: its
// remaining trajectory is bit-identical to the golden suffix, so the final
// Result it would have produced is the golden Result itself — including
// Cycles, which is why a converged run can never be control-affected.
// The injected flag is passed through so the Masked detail matches what the
// brute-force run would report when the flip found no target.
func (g *GoldenRun) classifyConverged(res *sim.Result, injected bool) faults.Result {
	g.convergeHits.Add(1)
	g.convergeCyclesSaved.Add(g.Res.Cycles - res.ConvergedAt)
	return Classify(g, g.Res, injected)
}

// CheckpointCounts returns the golden run's fork/converge statistics and
// snapshot inventory. Safe to call concurrently with injections.
func (g *GoldenRun) CheckpointCounts() CheckpointCounts {
	c := CheckpointCounts{
		ForkResumes:         g.forkResumes.Load(),
		ForkCyclesSaved:     g.forkCyclesSaved.Load(),
		ConvergeHits:        g.convergeHits.Load(),
		ConvergeCyclesSaved: g.convergeCyclesSaved.Load(),
		ConvergeDisabled:    g.convergeDisabled.Load(),
	}
	if g.Snaps != nil {
		// Read-only after the golden run, so these are stable.
		c.Snapshots = int64(g.Snaps.Len())
		c.SnapshotBytes = g.Snaps.Bytes()
		c.Evictions = g.Snaps.Evicted()
	}
	return c
}
