// Package gpurel reproduces "GPU Reliability Assessment: Insights Across the
// Abstraction Layers" (IEEE CLUSTER 2024): cross-layer AVF measurement on a
// cycle-level GPU microarchitecture simulator (the gpuFI-4/GPGPU-Sim
// analogue), software-level SVF measurement on a functional executor (the
// NVBitFI analogue), the 11-benchmark/23-kernel evaluation, thread-level TMR
// hardening, and the trend analyses behind every table and figure of the
// paper.
//
// Study is the entry point: it owns the chip configuration and campaign
// sizing, lazily builds and caches golden runs, and memoises every campaign
// so that figures sharing data (e.g. Figure 1 and Table I) measure it once.
package gpurel

import (
	"fmt"
	"math/rand"

	"sync"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
	"gpurel/internal/metrics"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
	"gpurel/internal/softfi"
)

// Study orchestrates the paper's measurements. The zero value is not usable;
// call NewStudy.
type Study struct {
	Cfg     gpu.Config
	Runs    int   // injections per campaign point
	Seed    int64 // base seed; campaigns derive per-run seeds from it
	Workers int   // parallel injection workers (0 = GOMAXPROCS)

	// RunPoint, when non-nil, executes campaign points instead of the local
	// campaign.Run — e.g. by submitting them to a gpureld daemon via the
	// client package's RunPoint hook. The options carry the fully derived
	// point seed (see PointSeed), so a remote executor — or a whole worker
	// fleet — reproduces the local tally bit for bit. Fleet sizing (lease
	// length, worker count) is execution policy, not part of the point
	// identity, and never feeds PointSeed. Memoisation still applies on top.
	RunPoint func(spec PointSpec, opts campaign.Options) (campaign.Tally, error)

	// Sampling, when non-nil, is the default adaptive sampling policy applied
	// to every campaign point that does not carry its own (PointSpec.Sampling
	// overrides it). nil keeps the paper's fixed-n methodology.
	Sampling *SamplingPolicy

	// Counters, when non-nil, accumulates sampling-efficiency statistics
	// (simulated runs, liveness prune hits, runs saved by early stopping)
	// across every campaign the study executes.
	Counters *adaptive.Counters

	// Checkpoint is the default checkpointed-injection spec applied when an
	// application's golden runs are first built (PointSpec.Checkpoint
	// overrides it for points evaluated before then). The zero value keeps
	// plain brute-force goldens. Like Sampling it tunes how points are
	// simulated, not what they measure: campaign tallies are bit-identical
	// either way (microfi.GoldenCheckpointed).
	Checkpoint microfi.CheckpointSpec

	mu      sync.Mutex
	apps    map[string]*AppEval
	tallies map[string]campaign.Tally // keyed by PointSpec.identity()
}

// NewStudy returns a study over the default scaled-Volta chip.
func NewStudy(runs int, seed int64) *Study {
	return &Study{
		Cfg:     gpu.Volta(),
		Runs:    runs,
		Seed:    seed,
		apps:    map[string]*AppEval{},
		tallies: map[string]campaign.Tally{},
	}
}

// Apps returns the 11 benchmark applications in the paper's order.
func (s *Study) Apps() []kernels.App { return kernels.All() }

// AppEval is the cached per-application state: plain and hardened jobs with
// their golden runs on both simulators, plus the selectively hardened
// variants campaigns have asked for. The golden runs are built once, by the
// first evaluation of the app; concurrent first evaluations wait on it.
type AppEval struct {
	App kernels.App

	Job       *device.Job
	MicroG    *microfi.GoldenRun
	SoftG     *softfi.GoldenRun
	JobTMR    *device.Job
	MicroGTMR *microfi.GoldenRun
	SoftGTMR  *softfi.GoldenRun

	once  sync.Once // runs build; every evaluation of the app waits on it
	err   error     // build's verdict, read after once
	built bool      // guarded by Study.mu: the exported fields above are final

	plain, tmr variant // the fields above in the form resolve hands out

	selMu sync.Mutex
	sel   map[string]*variant // proper protection subsets, keyed by Set.Canonical()
}

// variant is one protection variant of an application — the plain job, the
// fully TMR-hardened one, or a proper selective subset — with everything a
// campaign point needs from it: the job, its golden runs, which kernels'
// campaigns include the vote, and (traced on first use) the interval map of
// the golden run.
type variant struct {
	Job    *device.Job
	MicroG *microfi.GoldenRun
	SoftG  *softfi.GoldenRun // nil on proper subsets: selective hardening is micro-only

	all     bool       // every kernel is protected (TMR)
	protect harden.Set // the protected kernels of a proper subset

	once sync.Once // builds a proper subset's job and golden run
	err  error

	traceOnce sync.Once
	iv        *microfi.StaticIntervals
	traceErr  error
}

// build runs the four golden runs of the application. ck is the checkpoint
// spec of the evaluation that got here first; selective variants reuse it.
func (e *AppEval) build(cfg gpu.Config, ck microfi.CheckpointSpec) (err error) {
	name := e.App.Name
	e.Job = e.App.Build()
	if e.MicroG, err = microfi.GoldenCheckpointed(e.Job, cfg, ck); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if e.SoftG, err = softfi.Golden(e.Job); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	e.JobTMR = harden.TMR(e.Job)
	if e.MicroGTMR, err = microfi.GoldenCheckpointed(e.JobTMR, cfg, ck); err != nil {
		return fmt.Errorf("%s+TMR: %w", name, err)
	}
	if e.SoftGTMR, err = softfi.Golden(e.JobTMR); err != nil {
		return fmt.Errorf("%s+TMR: %w", name, err)
	}
	e.plain = variant{Job: e.Job, MicroG: e.MicroG, SoftG: e.SoftG}
	e.tmr = variant{Job: e.JobTMR, MicroG: e.MicroGTMR, SoftG: e.SoftGTMR, all: true}
	return nil
}

// resolve canonicalises a point's protection against the application's
// kernels and returns the canonical spec with the variant it injects into:
// an empty protection set is the plain job, a set covering every kernel is
// Hardened, anything else becomes its sorted kernel names. The boundary sets
// thereby share seeds, memo slots and golden runs with the plain and TMR
// campaigns, which is what makes the harden.Selective bit-identity property
// observable at the tally level. A proper subset's job and golden run are
// built on first use and cached, on the chip and with the checkpoint spec of
// the app's own golden runs. A point whose kernel, or any kernel it hardens,
// is not one of the application's is an error.
func (e *AppEval) resolve(spec PointSpec) (PointSpec, *variant, error) {
	for _, k := range append([]string{spec.Kernel}, spec.Harden...) {
		if err := e.App.CheckKernel(k); err != nil {
			return spec, nil, err
		}
	}
	if len(spec.Harden) > 0 {
		set := spec.hardenSet()
		switch {
		case set.Empty():
			spec.Harden = nil
		case set.Covers(e.Job):
			// Full-set selective = TMR, bit for bit; share its golden.
			spec.Harden, spec.Hardened = nil, true
		default:
			spec.Harden = set.Names()
			key := set.Canonical()
			e.selMu.Lock()
			if e.sel == nil {
				e.sel = map[string]*variant{}
			}
			v, ok := e.sel[key]
			if !ok {
				v = &variant{protect: set}
				e.sel[key] = v
			}
			e.selMu.Unlock()
			v.once.Do(func() {
				v.Job = harden.Selective(e.Job, set)
				v.MicroG, v.err = microfi.GoldenCheckpointed(v.Job, e.MicroG.Cfg, e.MicroG.Ckpt)
			})
			if v.err != nil {
				return spec, nil, fmt.Errorf("%s+SEL(%s): %w", e.App.Name, key, v.err)
			}
			return spec, v, nil
		}
	}
	if spec.Hardened {
		return spec, &e.tmr, nil
	}
	return spec, &e.plain, nil
}

// votes reports whether a kernel's campaigns on this variant include the
// vote. The vote belongs to the protected kernels' workflow: its windows
// count toward a kernel exactly when that kernel is protected.
func (v *variant) votes(kernel string) bool { return v.all || v.protect.Has(kernel) }

// target returns the micro-level injection target of a point on this
// variant under the given fault model (nil = the default, which is all a
// derating factor needs).
func (v *variant) target(spec PointSpec, mdl faultmodel.Model) microfi.Target {
	return microfi.Target{Structure: spec.Structure, Kernel: spec.Kernel, IncludeVote: v.votes(spec.Kernel), Model: mdl}
}

// cycles returns the golden-run cycle weight of one kernel on this variant.
func (v *variant) cycles(kernel string) float64 {
	var c int64
	for _, sp := range v.MicroG.Res.Spans {
		if sp.Kernel == kernel {
			c += sp.End - sp.Start
		}
	}
	return float64(c)
}

// intervals traces (once) the interval map of the variant's golden run — one
// fault-free run, no injections. Pruned campaigns read its register-file
// liveness.
func (v *variant) intervals() (*microfi.StaticIntervals, error) {
	v.traceOnce.Do(func() {
		v.iv, v.traceErr = microfi.TraceStatic(v.Job, v.MicroG.Cfg)
	})
	return v.iv, v.traceErr
}

// Layer selects which injector a campaign point runs on.
type Layer string

const (
	// LayerMicro is the cross-layer path: bit flips in the raw storage
	// arrays of the cycle-level simulator (the gpuFI-4 analogue).
	LayerMicro Layer = "micro"
	// LayerSoft is the software-only path: instruction-level injection on
	// the functional executor (the NVBitFI analogue).
	LayerSoft Layer = "soft"
)

// SamplingPolicy selects the adaptive sampling strategy of a campaign point.
// The zero value (and a nil pointer) is the paper's fixed-n design.
type SamplingPolicy struct {
	// Margin enables sequential early stopping at the given target
	// Wilson-score 99% CI half-width on the failure rate (<= 0 disables it).
	Margin float64
	// Batch is the run-index granularity of the stop rule
	// (0 = adaptive.DefaultBatch).
	Batch int
	// Prune enables liveness-guided pruning of register-file and
	// shared-memory injections: provably-dead sites classify as Masked from
	// the golden run's interval map instead of being simulated.
	// Classifications are bit-identical to brute force (microfi.InjectStatic).
	Prune bool
}

// Policy converts the point-level knobs to the engine's stopping policy.
func (p *SamplingPolicy) Policy() adaptive.Policy {
	if p == nil {
		return adaptive.Policy{}
	}
	return adaptive.Policy{Margin: p.Margin, Batch: p.Batch}
}

// PointSpec identifies one campaign point — the unit of work the campaign
// scheduler (internal/service) accepts, checkpoints and resumes. Structure
// is meaningful only for LayerMicro, Mode only for LayerSoft.
//
// Sampling tunes how the point is sampled, not what it measures: it is
// deliberately excluded from PointSeed, so an adaptive campaign draws the
// exact same per-run experiments as the fixed-n campaign it truncates.
type PointSpec struct {
	Layer     Layer
	App       string
	Kernel    string
	Structure gpu.Structure
	Mode      softfi.Mode
	Hardened  bool
	Sampling  *SamplingPolicy
	// Checkpoint, when non-nil, overrides the study's default checkpointed
	// injection spec for the golden runs backing this point. Like Sampling
	// it is excluded from PointSeed — it accelerates the point without
	// changing what it measures. Golden runs are built once per app, so the
	// spec in effect at the first evaluation of an app wins.
	Checkpoint *microfi.CheckpointSpec
	// Fault selects the fault model of a LayerMicro point (nil = the legacy
	// transient single-bit flip). Unlike Sampling and Checkpoint it changes
	// WHAT the point measures, so every non-default spec feeds PointSeed;
	// the default contributes nothing, keeping historical seeds intact.
	Fault *faultmodel.Spec
	// Harden names the protected kernel subset of a selective-hardening
	// point (LayerMicro): the campaign injects into harden.Selective(job,
	// set) instead of the plain or fully-TMR'd job. Mutually exclusive with
	// Hardened. Like Fault it changes what the point measures, so a
	// non-empty set feeds PointSeed; the study canonicalises the empty set
	// to the plain job and a set covering every kernel to Hardened=true
	// before seeding (AppEval.resolve), so those boundary points share seeds
	// and memo entries with the plain and TMR campaigns.
	Harden []string
}

// hardenSet returns the point's protection set in canonical form.
func (p PointSpec) hardenSet() harden.Set { return harden.NewSet(p.Harden...) }

// faultSpec returns the point's fault spec with nil meaning the default.
func (p PointSpec) faultSpec() faultmodel.Spec {
	if p.Fault == nil {
		return faultmodel.Spec{}
	}
	return *p.Fault
}

// Validate checks the rules a point must meet whatever application it
// names: a known layer, Hardened and Harden not both set, fault models and
// selective hardening on the micro layer only, and a fault model that suits
// the structure. The texts are the wire's (service.JobSpec.Point calls this
// at submission), hence the field-name prefixes.
func (p PointSpec) Validate() error {
	switch p.Layer {
	case LayerMicro:
		if p.Hardened && len(p.Harden) > 0 {
			return fmt.Errorf("harden: mutually exclusive with hardened")
		}
		if err := p.faultSpec().ValidateFor(p.Structure); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
	case LayerSoft:
		if !p.faultSpec().IsDefault() {
			return fmt.Errorf("fault: models apply to the micro layer only")
		}
		if len(p.Harden) > 0 {
			return fmt.Errorf("harden: selective hardening applies to the micro layer only")
		}
	default:
		return fmt.Errorf("layer must be %q or %q, got %q", LayerMicro, LayerSoft, p.Layer)
	}
	return nil
}

// identity renders what the point measures as a string: layer, app, kernel,
// structure or mode, protection and fault model — never Sampling or
// Checkpoint, which tune how it is measured. It is both what PointSeed
// hashes and the study's memo key, so two specs share a memo slot exactly
// when they share a seed.
func (p PointSpec) identity() string {
	if p.Layer == LayerSoft {
		return fmt.Sprintf("soft|%s|%s|%d|%v", p.App, p.Kernel, p.Mode, p.Hardened)
	}
	id := fmt.Sprintf("micro|%s|%s|%d|%v", p.App, p.Kernel, p.Structure, p.Hardened)
	// The fault model is part of the point's identity — it changes what
	// is measured — but the default (transient single-bit) is appended as
	// nothing at all, so seeds of every pre-fault-model campaign are
	// unchanged and historical tallies remain reproducible.
	if c := p.faultSpec().Canonical(); c != "" {
		id += "|fault=" + c
	}
	// Likewise for selective hardening: a proper protection subset is a
	// new point identity, while the boundary sets are canonicalised away
	// before seeding and so contribute nothing here.
	if c := p.hardenSet().Canonical(); c != "" {
		id += "|harden=" + c
	}
	return id
}

// PointSeed derives the campaign seed of a point from a base seed, exactly
// as Study's memoised tallies always have: base + FNV-1a of the point's
// identity string. Run i of the point then uses rand.NewSource(seed+i)
// (campaign.RunRange), which is what makes points resumable anywhere.
func PointSeed(base int64, spec PointSpec) int64 {
	return base + int64(hashKey(spec.identity()))
}

// resolve validates a point, evaluates its application (building the golden
// runs on first use, checkpointed per the point's spec or the study's
// default) and resolves its protection: the canonical spec and the variant
// it injects into.
func (s *Study) resolve(spec PointSpec) (PointSpec, *variant, error) {
	if err := spec.Validate(); err != nil {
		return spec, nil, err
	}
	ck := s.Checkpoint
	if spec.Checkpoint != nil {
		ck = *spec.Checkpoint
	}
	e, err := s.evalWith(spec.App, ck)
	if err != nil {
		return spec, nil, err
	}
	return e.resolve(spec)
}

// PointExperiment builds (caching golden runs on first use) the injection
// closure of one campaign point. The returned Experiment is safe for
// concurrent calls and deterministic per (run, rng) — the entry point the
// campaign service schedules run-ranges against.
func (s *Study) PointExperiment(spec PointSpec) (campaign.Experiment, error) {
	spec, v, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}
	if spec.Layer == LayerSoft {
		job, g := v.Job, v.SoftG
		t := softfi.Target{Kernel: spec.Kernel, Mode: spec.Mode, IncludeVote: v.votes(spec.Kernel)}
		return s.Counters.Count(func(run int, rng *rand.Rand) faults.Result {
			return softfi.Inject(job, g, t, rng)
		}), nil
	}
	mdl, err := spec.faultSpec().Build()
	if err != nil {
		return nil, err
	}
	job, g, t := v.Job, v.MicroG, v.target(spec, mdl)
	// The interval map is the only evidence a study point can hold. It
	// prunes register-file and shared-memory points; on other structures,
	// and with no map, InjectStatic is exactly Inject and every run counts
	// as simulated.
	var si *microfi.StaticIntervals
	if spec.Sampling != nil && spec.Sampling.Prune {
		if si, err = v.intervals(); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.App, err)
		}
	}
	return s.Counters.Instrument(func(run int, rng *rand.Rand) (faults.Result, bool) {
		return microfi.InjectStatic(job, g, si, t, rng)
	}), nil
}

// runPoint executes (locally or through the RunPoint hook) one campaign
// point with the study's sizing, the point's derived seed and the effective
// sampling policy (the point's own, else the study default).
func (s *Study) runPoint(spec PointSpec) (campaign.Tally, error) {
	if spec.Sampling == nil {
		spec.Sampling = s.Sampling
	}
	if spec.Checkpoint == nil && s.Checkpoint.Enabled() {
		// Propagate the study default into the spec so a RunPoint hook
		// (e.g. the gpureld daemon) accelerates the point the same way.
		ck := s.Checkpoint
		spec.Checkpoint = &ck
	}
	opts := campaign.Options{Runs: s.Runs, Seed: PointSeed(s.Seed, spec), Workers: s.Workers}
	if s.RunPoint != nil {
		return s.RunPoint(spec, opts)
	}
	fn, err := s.PointExperiment(spec)
	if err != nil {
		return campaign.Tally{}, err
	}
	if pol := spec.Sampling.Policy(); pol.Margin > 0 {
		res := adaptive.Run(opts, pol, fn)
		if s.Counters != nil {
			s.Counters.Saved.Add(int64(res.Saved))
		}
		return res.Tally, nil
	}
	return campaign.Run(opts, fn), nil
}

// Eval returns (building and caching on first use) the evaluation state of
// the named application, using the study's default checkpoint spec.
func (s *Study) Eval(appName string) (*AppEval, error) {
	return s.evalWith(appName, s.Checkpoint)
}

// evalWith is Eval with an explicit checkpoint spec for the micro-level
// golden runs. An app is built once — the spec only matters the first time
// it is evaluated — and concurrent first evaluations all wait on that one
// build and see its error. Unknown names are refused before anything is
// inserted, so names from the wire cannot grow the map.
func (s *Study) evalWith(appName string, ck microfi.CheckpointSpec) (*AppEval, error) {
	s.mu.Lock()
	e, ok := s.apps[appName]
	if !ok {
		app, err := kernels.ByName(appName)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		e = &AppEval{App: app}
		s.apps[appName] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		if e.err = e.build(s.Cfg, ck); e.err == nil {
			s.mu.Lock()
			e.built = true
			s.mu.Unlock()
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// CheckpointCounts aggregates fork/converge statistics and the snapshot
// inventory across every cached golden run (plain and TMR-hardened). Safe to
// call concurrently with running campaigns; apps still building are skipped.
func (s *Study) CheckpointCounts() microfi.CheckpointCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c microfi.CheckpointCounts
	for _, e := range s.apps {
		if e.built {
			c.Add(e.MicroG.CheckpointCounts())
			c.Add(e.MicroGTMR.CheckpointCounts())
		}
	}
	return c
}

// SoftCheckpointCounts is CheckpointCounts for the software level: the
// CTA-boundary checkpoints of every cached functional golden run and the
// work fork-and-join saved the soft campaigns. Kept apart from
// CheckpointCounts, which reports the cycle simulator alone.
func (s *Study) SoftCheckpointCounts() softfi.CheckpointCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c softfi.CheckpointCounts
	for _, e := range s.apps {
		if e.built {
			c.Add(e.SoftG.CheckpointCounts())
			c.Add(e.SoftGTMR.CheckpointCounts())
		}
	}
	return c
}

// Tally runs (or recalls) the campaign of one point: any layer, structure or
// mode, protection (plain, Hardened, or a Harden subset) and fault model.
// It is the study's one memoised body; the memo key is the identity of the
// point after its protection is canonicalised, so every spelling of a point
// — and every figure that needs it — shares one campaign.
func (s *Study) Tally(spec PointSpec) (campaign.Tally, error) {
	spec, _, err := s.resolve(spec)
	if err != nil {
		return campaign.Tally{}, err
	}
	key := spec.identity()
	s.mu.Lock()
	tl, ok := s.tallies[key]
	s.mu.Unlock()
	if !ok {
		if tl, err = s.runPoint(spec); err != nil {
			return campaign.Tally{}, err
		}
		s.mu.Lock()
		s.tallies[key] = tl
		s.mu.Unlock()
	}
	return tl, nil
}

// derated is Tally for a micro-level point plus the derating factor of its
// target, measured on the golden run of the variant it injects into.
func (s *Study) derated(spec PointSpec) (campaign.Tally, float64, error) {
	spec, v, err := s.resolve(spec)
	if err != nil {
		return campaign.Tally{}, 0, err
	}
	tl, err := s.Tally(spec)
	return tl, v.target(spec, nil).DF(v.MicroG), err
}

// MicroTally runs (or recalls) the microarchitecture-level campaign for one
// (app, kernel, structure) point and returns the tally plus the derating
// factor of the target.
func (s *Study) MicroTally(appName, kernel string, st gpu.Structure, hardened bool) (campaign.Tally, float64, error) {
	return s.derated(PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Structure: st, Hardened: hardened})
}

// SoftTally runs (or recalls) the software-level campaign for one
// (app, kernel, mode) point.
func (s *Study) SoftTally(appName, kernel string, mode softfi.Mode, hardened bool) (campaign.Tally, error) {
	return s.Tally(PointSpec{Layer: LayerSoft, App: appName, Kernel: kernel, Mode: mode, Hardened: hardened})
}

func hashKey(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// kernelStructs runs one campaign per listed structure for the kernel and
// protection spec names, derates each on the variant's golden run, and
// returns the per-structure AVFs with the number of runs behind them.
func (s *Study) kernelStructs(spec PointSpec, sts []gpu.Structure) ([]metrics.StructAVF, int, error) {
	var structs []metrics.StructAVF
	runs := 0
	for _, st := range sts {
		spec.Structure = st
		tl, df, err := s.derated(spec)
		if err != nil {
			return nil, 0, err
		}
		structs = append(structs, metrics.NewStructAVF(st, tl, df))
		runs += tl.N
	}
	return structs, runs, nil
}

// appAVF measures an application's AVF over the listed structures on the
// variant spec names: per kernel, the structures' AVFs consolidated by bit
// counts within the list (over all five that is exactly metrics.ChipAVF),
// then weighted by the kernels' cycle shares of the variant's golden run
// (§II-B). It also returns the per-kernel parts, in App.Kernels order, and
// the number of runs behind them.
func (s *Study) appAVF(spec PointSpec, sts []gpu.Structure) (metrics.Breakdown, []metrics.Breakdown, int, error) {
	e, err := s.Eval(spec.App)
	if err != nil {
		return metrics.Breakdown{}, nil, 0, err
	}
	_, v, err := e.resolve(spec)
	if err != nil {
		return metrics.Breakdown{}, nil, 0, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	runs := 0
	for _, k := range e.App.Kernels {
		spec.Kernel = k
		structs, n, err := s.kernelStructs(spec, sts)
		if err != nil {
			return metrics.Breakdown{}, nil, 0, err
		}
		parts = append(parts, metrics.SubsetAVF(s.Cfg, structs))
		weights = append(weights, v.cycles(k))
		runs += n
	}
	return metrics.Weighted(parts, weights), parts, runs, nil
}

// KernelAVF measures the full-chip cross-layer AVF of one kernel: one
// campaign per hardware structure, derated, consolidated by structure bit
// counts (§II-B).
func (s *Study) KernelAVF(appName, kernel string, hardened bool) (metrics.Breakdown, []metrics.StructAVF, error) {
	structs, _, err := s.kernelStructs(PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Hardened: hardened}, gpu.Structures[:])
	return metrics.ChipAVF(s.Cfg, structs), structs, err
}

// KernelAVFStratified measures the same full-chip AVF as KernelAVF but
// treats the five hardware structures as strata of one sampling budget:
// after a pilot, Neyman allocation concentrates the remaining runs on the
// structures with the highest weighted failure-rate variance (weights are
// the structures' shares of the chip's storage bits — the same weights
// metrics.ChipAVF recombines with, so precision is spent where it moves the
// chip AVF most). Per-structure tallies are deterministic prefixes of the
// corresponding fixed-n campaigns and are stored in the memo, so later Tally
// calls for these points reuse them. Liveness pruning of RF runs follows the
// study's Sampling policy.
func (s *Study) KernelAVFStratified(appName, kernel string, hardened bool, pol adaptive.StratifiedPolicy) (metrics.Breakdown, []metrics.StructAVF, []adaptive.StratumResult, error) {
	spec := PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Hardened: hardened,
		Sampling: &SamplingPolicy{Margin: pol.Margin, Batch: pol.Batch}}
	if s.Sampling != nil {
		spec.Sampling.Prune = s.Sampling.Prune
	}
	_, v, err := s.resolve(spec)
	if err != nil {
		return metrics.Breakdown{}, nil, nil, err
	}
	var strata []adaptive.Stratum
	for _, st := range gpu.Structures {
		spec.Structure = st
		fn, err := s.PointExperiment(spec)
		if err != nil {
			return metrics.Breakdown{}, nil, nil, err
		}
		strata = append(strata, adaptive.Stratum{
			Name:   st.String(),
			Weight: float64(s.Cfg.StructBits(st)),
			Opts:   campaign.Options{Runs: s.Runs, Seed: PointSeed(s.Seed, spec), Workers: s.Workers},
			Fn:     fn,
		})
	}
	results := adaptive.Stratified(strata, pol)

	var structs []metrics.StructAVF
	s.mu.Lock()
	for i, st := range gpu.Structures {
		spec.Structure = st
		tl := results[i].Tally
		s.tallies[spec.identity()] = tl
		structs = append(structs, metrics.NewStructAVF(st, tl, v.target(spec, nil).DF(v.MicroG)))
		if s.Counters != nil {
			s.Counters.Saved.Add(int64(s.Runs - tl.N))
		}
	}
	s.mu.Unlock()
	return metrics.ChipAVF(s.Cfg, structs), structs, results, nil
}

// KernelSVF measures the SVF of one kernel.
func (s *Study) KernelSVF(appName, kernel string, hardened bool) (metrics.Breakdown, error) {
	tl, err := s.SoftTally(appName, kernel, softfi.SVF, hardened)
	return metrics.FromTally(tl), err
}

// AppAVF measures the application AVF: per-kernel AVFs weighted by kernel
// cycles (§II-B).
func (s *Study) AppAVF(appName string, hardened bool) (metrics.Breakdown, error) {
	b, _, _, err := s.appAVF(PointSpec{Layer: LayerMicro, App: appName, Hardened: hardened}, gpu.Structures[:])
	return b, err
}

// AppAVFRF measures the application AVF restricted to the register file
// (AVF-RF, Figure 4), cycle-weighted over kernels.
func (s *Study) AppAVFRF(appName string) (metrics.Breakdown, error) {
	b, _, _, err := s.appAVF(PointSpec{Layer: LayerMicro, App: appName}, []gpu.Structure{gpu.RF})
	return b, err
}

// AppAVFCache measures AVF over the cache structures only (AVF-Cache,
// Figure 5: L1D + L1T + L2), cycle-weighted over kernels and size-weighted
// within the subset.
func (s *Study) AppAVFCache(appName string) (metrics.Breakdown, error) {
	b, _, _, err := s.appAVF(PointSpec{Layer: LayerMicro, App: appName}, []gpu.Structure{gpu.L1D, gpu.L1T, gpu.L2})
	return b, err
}

// AppSVF measures the application SVF: per-kernel SVFs weighted by executed
// instruction counts (§II-C).
func (s *Study) AppSVF(appName string, hardened bool) (metrics.Breakdown, error) {
	return s.appSVF(appName, softfi.SVF, hardened)
}

// AppSVFLD measures the application's load-only SVF (SVF-LD, Figure 5).
func (s *Study) AppSVFLD(appName string) (metrics.Breakdown, error) {
	return s.appSVF(appName, softfi.SVFLD, false)
}

// appSVF measures an application's software-level vulnerability in one
// injection mode: per-kernel failure rates weighted by the kernels' dynamic
// instruction counts in the variant's functional golden run.
func (s *Study) appSVF(appName string, mode softfi.Mode, hardened bool) (metrics.Breakdown, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	spec := PointSpec{Layer: LayerSoft, App: appName, Mode: mode, Hardened: hardened}
	_, v, err := e.resolve(spec)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range e.App.Kernels {
		spec.Kernel = k
		tl, err := s.Tally(spec)
		if err != nil {
			return metrics.Breakdown{}, err
		}
		parts = append(parts, metrics.FromTally(tl))
		var w float64
		if kc := v.SoftG.Res.PerKernel[k]; kc != nil {
			w = float64(kc.DynInstrs)
		}
		weights = append(weights, w)
	}
	return metrics.Weighted(parts, weights), nil
}

// CtrlAffectedPct pools the five per-structure microarchitecture campaigns
// of a kernel and returns the fraction of masked runs whose cycle count
// deviated from golden — the control-path proxy of Figure 11.
func (s *Study) CtrlAffectedPct(appName, kernel string, hardened bool) (float64, error) {
	var pooled campaign.Tally
	for _, st := range gpu.Structures {
		tl, _, err := s.MicroTally(appName, kernel, st, hardened)
		if err != nil {
			return 0, err
		}
		pooled.Merge(tl)
	}
	return pooled.CtrlAffectedPct(), nil
}

// KernelStats returns the fault-free microarchitectural profile of a kernel
// (the resource-utilisation metrics of Figure 3).
func (s *Study) KernelStats(appName, kernel string) (*sim.KernelStats, []sim.LaunchSpan, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return nil, nil, err
	}
	ks := e.MicroG.Res.PerKernel[kernel]
	if ks == nil {
		return nil, nil, fmt.Errorf("%s: kernel %s not found", appName, kernel)
	}
	var spans []sim.LaunchSpan
	for _, sp := range e.MicroG.Res.Spans {
		if sp.Kernel == kernel {
			spans = append(spans, sp)
		}
	}
	return ks, spans, nil
}

// KernelIDs lists all 23 (app, kernel) pairs in the paper's order.
func (s *Study) KernelIDs() []KernelID {
	var out []KernelID
	for _, a := range kernels.All() {
		for _, k := range a.Kernels {
			out = append(out, KernelID{App: a.Name, Kernel: k})
		}
	}
	return out
}

// KernelID names one kernel of one application.
type KernelID struct{ App, Kernel string }

// Label renders the Figure 2 style label, e.g. "SRADv1 K4".
func (k KernelID) Label() string { return k.App + " " + k.Kernel }

// SortedAppNames returns the application names in the paper's order.
func SortedAppNames() []string {
	var out []string
	for _, a := range kernels.All() {
		out = append(out, a.Name)
	}
	return out
}
