// Package microfi is the gpuFI-4 analogue: microarchitecture-level
// statistical fault injection into the simulator's storage arrays (register
// files, shared memory, L1 data/texture caches, L2 cache) and control state
// (warp-scheduler entries, divergence stacks, barrier latches). Each
// experiment plants one fault — by default a transient single-bit flip, or
// any internal/faultmodel family — at one uniformly chosen cycle of the
// target kernel's execution window and classifies the run against the
// golden output (§II-B of the paper).
package microfi

import (
	"bytes"
	"math/rand"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/sim"
)

// GoldenRun caches the fault-free simulation of a job.
type GoldenRun struct {
	Res *sim.Result
	Cfg gpu.Config

	// Snaps holds the golden run's machine snapshots when built with
	// GoldenCheckpointed (nil otherwise); Ckpt is the spec it was built
	// with. Read-only once the golden run completes.
	Snaps *sim.SnapshotSet
	Ckpt  CheckpointSpec

	pool *sim.RunPool

	// Fork/converge tallies, updated atomically by concurrent injections.
	forkResumes, forkCyclesSaved      atomic.Int64
	convergeHits, convergeCyclesSaved atomic.Int64
	convergeDisabled                  atomic.Int64
}

// Golden runs the job fault-free. The run gets a generous cycle budget
// derived from the job's schedule-step budget so a pathological job (e.g. a
// kernel that spins forever) errors out instead of hanging: faulty runs are
// bounded by TimeoutFactor × golden cycles, but the golden run itself has no
// reference to bound against.
func Golden(job *device.Job, cfg gpu.Config) (*GoldenRun, error) {
	res := sim.Run(job, cfg, sim.Options{MaxCycles: goldenCycleBudget(job)})
	if err := vetGolden(res); err != nil {
		return nil, err
	}
	return &GoldenRun{Res: res, Cfg: cfg}, nil
}

// Target selects what one injection experiment hits.
type Target struct {
	Structure gpu.Structure
	// Kernel restricts the injection cycle to that kernel's execution
	// windows ("" = the whole application).
	Kernel string
	// IncludeVote additionally includes the TMR voting kernel's windows —
	// the vote is part of the hardened kernel's workflow (Fig. 6 step 3).
	IncludeVote bool
	// Model is the fault planted (nil = faultmodel.Transient{}, the paper's
	// transient single-bit flip).
	Model faultmodel.Model
}

// spans returns the launch spans matching the target kernel.
func (t Target) spans(g *GoldenRun) []sim.LaunchSpan {
	var out []sim.LaunchSpan
	for _, s := range g.Res.Spans {
		if t.Kernel == "" || s.Kernel == t.Kernel || (t.IncludeVote && s.Kernel == harden.VoteKernelName) {
			out = append(out, s)
		}
	}
	return out
}

// Windows returns the total cycle count of the target windows.
func (t Target) Windows(g *GoldenRun) int64 {
	var total int64
	for _, s := range t.spans(g) {
		total += s.End - s.Start
	}
	return total
}

// DF returns the derating factor for the target structure, cycle-weighted
// across the target kernel's launches (§II-B). Caches have DF = 1.
func (t Target) DF(g *GoldenRun) float64 {
	switch t.Structure {
	case gpu.RF, gpu.SMEM:
	default:
		return 1
	}
	var num, den float64
	for _, s := range t.spans(g) {
		c := float64(s.End - s.Start)
		den += c
		if t.Structure == gpu.RF {
			num += c * s.RFDeratingFactor(g.Cfg)
		} else {
			num += c * s.SmemDeratingFactor(g.Cfg)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// pickCycle draws a uniform cycle within the target windows.
func (t Target) pickCycle(g *GoldenRun, rng *rand.Rand) (int64, bool) {
	total := t.Windows(g)
	if total <= 0 {
		return 0, false
	}
	k := rng.Int63n(total)
	for _, s := range t.spans(g) {
		n := s.End - s.Start
		if k < n {
			return s.Start + k + 1, true // cycles are 1-based in the runner
		}
		k -= n
	}
	return 0, false
}

// model resolves the target's fault model; the zero Target is the paper's
// transient single-bit flip.
func (t Target) model() faultmodel.Model {
	if t.Model == nil {
		return faultmodel.Transient{}
	}
	return t.Model
}

// Inject performs one injection experiment under the target's fault model
// and classifies the outcome. The rand stream is consumed in the same order
// for every model (cycle draw, then the model's site draws), so a (seed,
// run) pair names one experiment regardless of how it is accelerated.
func Inject(job *device.Job, g *GoldenRun, t Target, rng *rand.Rand) faults.Result {
	mdl := t.model()
	cycle, r, done := t.preflight(g, mdl, rng)
	if done {
		return r
	}
	return injectRun(job, g, cycle, mdl.Persistent(), func(m *sim.Machine) (faultmodel.Applier, bool) {
		return mdl.Arm(m, t.Structure, rng)
	})
}

// preflight runs the simulation-free prefix of every experiment: cycle
// selection within the target windows and the ECC screen. done=true means
// the experiment classifies without a faulty run. The screen keys on the
// model's per-word footprint, and control structures (which sit outside the
// ECC-indexed storage arrays and carry no code word) bypass it.
func (t Target) preflight(g *GoldenRun, mdl faultmodel.Model, rng *rand.Rand) (cycle int64, r faults.Result, done bool) {
	cycle, ok := t.pickCycle(g, rng)
	if !ok {
		// kernel never ran (e.g. zero shared memory usage): nothing to hit
		return 0, faults.Result{Outcome: faults.Masked, Detail: "empty injection window"}, true
	}
	// SEC-DED ECC on the target structure: a single defective bit per word
	// is corrected on every read (whether a transient upset or a permanent
	// stuck cell), two are detected but uncorrectable. Wider footprints
	// escape the code and strike the array below.
	if wb := mdl.WordBits(); wb > 0 && !t.Structure.IsControl() && g.Cfg.ECC[t.Structure] {
		switch wb {
		case 1:
			return 0, faults.Result{Outcome: faults.Masked, Detail: "corrected by ECC"}, true
		case 2:
			return 0, faults.Result{Outcome: faults.DUE, Detail: "detected uncorrectable (ECC)"}, true
		}
	}
	return cycle, faults.Result{}, false
}

// injectRun executes the faulty simulation and classifies it against
// golden. arm corrupts the machine at the injection cycle and reports
// whether any site was hit; a persistent fault additionally re-asserts the
// applier arm returned at the top of every subsequent cycle in which the
// machine can have changed (sim.Options.EachCycle; bit-identical to every
// cycle, because appliers are idempotent and pure functions of the machine),
// and convergence joins are withheld (see accelerate). On a checkpointed
// golden run the faulty simulation forks from the nearest snapshot below the
// injection cycle and may join back to golden early — both bit-identical to
// simulating from cycle 0 (see checkpoint.go).
func injectRun(job *device.Job, g *GoldenRun, cycle int64, persistent bool, arm func(*sim.Machine) (faultmodel.Applier, bool)) faults.Result {
	hit := false
	var applier faultmodel.Applier
	opts := sim.Options{
		MaxCycles: g.Res.Cycles * int64(g.Cfg.TimeoutFactor),
		AtCycle:   cycle,
		OnCycle: func(m *sim.Machine) {
			applier, hit = arm(m)
		},
	}
	if persistent {
		opts.EachCycle = func(m *sim.Machine) {
			if applier != nil {
				applier(m)
			}
		}
	}
	g.accelerate(&opts, cycle, persistent)
	res := sim.Run(job, g.Cfg, opts)
	if res.Converged {
		return g.classifyConverged(res, hit)
	}
	return Classify(g, res, hit)
}

// Classify compares a (possibly faulty) run against the golden run.
func Classify(g *GoldenRun, res *sim.Result, injected bool) faults.Result {
	switch {
	case res.TimedOut:
		return faults.Result{Outcome: faults.Timeout}
	case res.Err != nil:
		return faults.Result{Outcome: faults.DUE, Detail: res.Err.Error()}
	case res.DUEFlag:
		return faults.Result{Outcome: faults.DUE, Detail: "application-detected (TMR vote disagreement)"}
	case !bytes.Equal(res.Output, g.Res.Output):
		return faults.Result{Outcome: faults.SDC}
	default:
		r := faults.Result{Outcome: faults.Masked, CtrlAffected: res.Cycles != g.Res.Cycles}
		if !injected {
			r.Detail = "no allocated entry at injection cycle"
		}
		return r
	}
}
