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
	"sync/atomic"

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

	// RunPoint, when non-nil, executes campaign points (RunAt) instead of
	// the local campaign.Run — e.g. by submitting them to a gpureld daemon
	// via the client package's RunPoint hook. The options carry the fully
	// derived campaign seed (PointSeed, or the seed RunAt was given), so a
	// remote executor — or a whole worker fleet — reproduces the local tally
	// bit for bit. Fleet sizing (lease
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

	// Checkpoint is the default checkpointed-injection spec of a point
	// (PointSpec.Checkpoint overrides it), applied to every golden run of an
	// application first evaluated with it. A point whose spec is enabled
	// also prunes: its provably dead RF, SMEM and cache draws classify
	// without simulation. NewStudy sets microfi.DefaultCheckpoint, fork-and-join
	// with pruning; the zero value keeps plain brute-force goldens and
	// prunes nothing, the reference path. Like Sampling it tunes how points
	// are simulated, not what they measure: campaign tallies are
	// bit-identical either way (microfi.GoldenCheckpointed,
	// microfi.InjectStatic).
	Checkpoint microfi.CheckpointSpec

	mu      sync.Mutex
	apps    map[string]*AppEval
	tallies map[string]campaign.Tally // keyed by PointSpec.identity()
}

// NewStudy returns a study over the default scaled-Volta chip whose
// micro-level campaigns fork, join and prune (microfi.DefaultCheckpoint).
func NewStudy(runs int, seed int64) *Study {
	return &Study{
		Cfg:        gpu.Volta(),
		Runs:       runs,
		Seed:       seed,
		Checkpoint: microfi.DefaultCheckpoint,
		apps:       map[string]*AppEval{},
		tallies:    map[string]campaign.Tally{},
	}
}

// Apps returns the 11 benchmark applications in the paper's order.
func (s *Study) Apps() []kernels.App { return kernels.All() }

// AppEval is the cached per-application state: one variant per protection —
// the plain job, the fully TMR-hardened one, and each selective subset a
// point has asked for — each building its job and its golden runs on the two
// simulators on first use, on the chip and with the checkpoint spec of the
// app's first evaluation. Concurrent first uses wait on one build.
//
// The exported fields are the plain and TMR variants on both simulators;
// Study.Eval fills them, building whatever of the four golden runs no point
// has built yet. Code inside the package resolves only the variant and the
// simulator a measurement needs.
type AppEval struct {
	App kernels.App

	Job       *device.Job
	MicroG    *microfi.GoldenRun
	SoftG     *softfi.GoldenRun
	JobTMR    *device.Job
	MicroGTMR *microfi.GoldenRun
	SoftGTMR  *softfi.GoldenRun

	cfg  gpu.Config             // the chip of the app's first evaluation
	ck   microfi.CheckpointSpec // the checkpoint spec of the app's first evaluation
	full lazy[struct{}]         // Eval's fill of the exported fields

	plain, tmr *variant

	selMu sync.Mutex
	sel   map[string]*variant // proper protection subsets, keyed by Set.Canonical()
}

// newAppEval returns the state of an application with nothing built yet.
func newAppEval(app kernels.App, cfg gpu.Config, ck microfi.CheckpointSpec) *AppEval {
	e := &AppEval{App: app, cfg: cfg, ck: ck, sel: map[string]*variant{}}
	e.plain = &variant{e: e, name: app.Name, job: sync.OnceValue(app.Build)}
	e.tmr = &variant{e: e, name: app.Name + "+TMR", all: true,
		job: sync.OnceValue(func() *device.Job { return harden.TMR(e.plain.job()) })}
	return e
}

// variant is one protection variant of an application — the plain job, the
// fully TMR-hardened one, or a proper selective subset — with everything a
// campaign point needs from it, each part built once on first use: the job,
// its golden run on each simulator, and the interval map of the cycle-level
// one. It also knows which kernels' campaigns include the vote.
type variant struct {
	e    *AppEval
	name string             // the error prefix: "VA", "VA+TMR", "VA+SEL(K1)"
	job  func() *device.Job // builds the job on first call, then returns it

	all     bool       // every kernel is protected (TMR)
	protect harden.Set // the protected kernels of a proper subset

	micro lazy[*microfi.GoldenRun]
	soft  lazy[*softfi.GoldenRun]

	traceOnce sync.Once
	iv        *microfi.StaticIntervals
}

// lazy is a value built once, on first use, by whichever caller gets there
// first; concurrent callers wait for it and all see the same value and
// error. ready peeks at it without waiting, for readers such as the
// /metrics poller that must not trigger or block on a build.
type lazy[T any] struct {
	once sync.Once
	done atomic.Bool // v and err are final
	v    T
	err  error
}

func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() {
		l.v, l.err = build()
		l.done.Store(true)
	})
	return l.v, l.err
}

// ready returns the value if it has been built without error.
func (l *lazy[T]) ready() (T, bool) {
	if l.done.Load() && l.err == nil {
		return l.v, true
	}
	var zero T
	return zero, false
}

// microG returns the variant's cycle-level golden run.
func (v *variant) microG() (*microfi.GoldenRun, error) {
	return v.micro.get(func() (*microfi.GoldenRun, error) {
		g, err := microfi.GoldenCheckpointed(v.job(), v.e.cfg, v.e.ck)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		return g, nil
	})
}

// softG returns the variant's functional golden run.
func (v *variant) softG() (*softfi.GoldenRun, error) {
	return v.soft.get(func() (*softfi.GoldenRun, error) {
		g, err := softfi.Golden(v.job())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		return g, nil
	})
}

// resolve canonicalises a point's protection against the application's
// kernels and returns the canonical spec with the variant it injects into:
// an empty protection set is the plain job, a set covering every kernel is
// Hardened, anything else becomes its sorted kernel names. The boundary sets
// thereby share seeds, memo slots and golden runs with the plain and TMR
// campaigns, which is what makes the harden.Selective bit-identity property
// observable at the tally level. Nothing is built beyond the plain job a
// protection set is checked against. A point whose kernel, or any kernel it
// hardens, is not one of the application's is an error.
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
		case set.Covers(e.plain.job()):
			// Full-set selective = TMR, bit for bit; share its golden.
			spec.Harden, spec.Hardened = nil, true
		default:
			spec.Harden = set.Names()
			key := set.Canonical()
			e.selMu.Lock()
			v, ok := e.sel[key]
			if !ok {
				v = &variant{e: e, name: fmt.Sprintf("%s+SEL(%s)", e.App.Name, key), protect: set,
					job: sync.OnceValue(func() *device.Job { return harden.Selective(e.plain.job(), set) })}
				e.sel[key] = v
			}
			e.selMu.Unlock()
			return spec, v, nil
		}
	}
	if spec.Hardened {
		return spec, e.tmr, nil
	}
	return spec, e.plain, nil
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

// kernelCycles returns the cycle weight of one kernel in a golden run.
func kernelCycles(g *microfi.GoldenRun, kernel string) float64 {
	var c int64
	for _, sp := range g.Res.Spans {
		if sp.Kernel == kernel {
			c += sp.End - sp.Start
		}
	}
	return float64(c)
}

// intervals traces (once) the interval map of the variant's golden run — one
// fault-free run, no injections. Pruned campaigns read its register-file
// and shared-memory liveness and its cache frame validity. A trace that
// fails leaves the map nil, and every run simulates: the tally is the same.
func (v *variant) intervals() *microfi.StaticIntervals {
	v.traceOnce.Do(func() {
		v.iv, _ = microfi.TraceStatic(v.job(), v.e.cfg)
	})
	return v.iv
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
	// changing what it measures. Each variant of an app (plain, TMR, each
	// selective subset) builds its golden runs on first use, but always
	// with the spec in effect at the first evaluation of the app: that
	// spec wins for every variant.
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
// identity string. Run i of the point then draws the stream of
// rand.NewSource(seed+i) (campaign.RunRange), which is what makes points
// resumable anywhere.
func PointSeed(base int64, spec PointSpec) int64 {
	return base + int64(hashKey(spec.identity()))
}

// resolve validates a point, looks up its application (on first use with
// the point's checkpoint spec, else the study's default) and resolves its
// protection: the canonical spec and the variant it injects into. It builds
// no golden run.
func (s *Study) resolve(spec PointSpec) (PointSpec, *variant, error) {
	if err := spec.Validate(); err != nil {
		return spec, nil, err
	}
	e, err := s.app(spec.App, s.checkpointFor(spec))
	if err != nil {
		return spec, nil, err
	}
	return e.resolve(spec)
}

// checkpointFor is the point's effective checkpoint spec: its own, else the
// study's.
func (s *Study) checkpointFor(spec PointSpec) microfi.CheckpointSpec {
	if spec.Checkpoint != nil {
		return *spec.Checkpoint
	}
	return s.Checkpoint
}

// Golden returns the golden run behind a point, building it on first use:
// the cycle-level run of its variant for a LayerMicro point, the functional
// one for a LayerSoft point (the other result is nil). It is the run the
// point's campaign injects into and derates against.
func (s *Study) Golden(spec PointSpec) (*microfi.GoldenRun, *softfi.GoldenRun, error) {
	spec, v, err := s.resolve(spec)
	if err != nil {
		return nil, nil, err
	}
	if spec.Layer == LayerSoft {
		g, err := v.softG()
		return nil, g, err
	}
	g, err := v.microG()
	return g, nil, err
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
		g, err := v.softG()
		if err != nil {
			return nil, err
		}
		job := v.job()
		t := softfi.Target{Kernel: spec.Kernel, Mode: spec.Mode, IncludeVote: v.votes(spec.Kernel)}
		return s.Counters.Count(func(run int, rng *rand.Rand) faults.Result {
			return softfi.Inject(job, g, t, rng)
		}), nil
	}
	mdl, err := spec.faultSpec().Build()
	if err != nil {
		return nil, err
	}
	g, err := v.microG()
	if err != nil {
		return nil, err
	}
	job, t := v.job(), v.target(spec, mdl)
	// The interval map is the only evidence a study point can hold. A point
	// whose checkpoint spec is enabled and whose draws can be pruned traces
	// it at its first run; with no map InjectStatic is exactly Inject and
	// every run counts as simulated.
	prune := s.checkpointFor(spec).Enabled() && t.Prunable()
	return s.Counters.Instrument(func(run int, rng *rand.Rand) (faults.Result, bool) {
		var si *microfi.StaticIntervals
		if prune {
			si = v.intervals()
		}
		return microfi.InjectStatic(job, g, si, t, rng)
	}), nil
}

// RunAt runs the campaign of one point at the given campaign seed, locally
// or through the RunPoint hook, with the study's sizing and the effective
// sampling policy (the point's own, else the study's), adding the runs an
// early stop saved to Counters. It memoises nothing: Tally runs each point
// through it at the point's PointSeed, and the front ends and ablations
// that keep campaign seeds of their own call it directly.
func (s *Study) RunAt(spec PointSpec, seed int64) (campaign.Tally, error) {
	if spec.Sampling == nil {
		spec.Sampling = s.Sampling
	}
	if spec.Checkpoint == nil && s.Checkpoint.Enabled() && s.Checkpoint != microfi.DefaultCheckpoint {
		// Propagate a non-default study spec into the spec so a RunPoint
		// hook (e.g. the gpureld daemon) accelerates the point the same
		// way; the default travels as no spec, which means the same there.
		ck := s.Checkpoint
		spec.Checkpoint = &ck
	}
	opts := campaign.Options{Runs: s.Runs, Seed: seed, Workers: s.Workers}
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

// Eval returns the evaluation state of the named application with its
// exported fields filled: the plain and TMR jobs and their golden runs on
// both simulators, built on first use with the study's default checkpoint
// spec unless a point evaluated the app first. Concurrent and later callers
// all see the first build's error.
func (s *Study) Eval(appName string) (*AppEval, error) {
	e, err := s.app(appName, s.Checkpoint)
	if err != nil {
		return nil, err
	}
	_, err = e.full.get(func() (struct{}, error) {
		var err error
		if e.MicroG, err = e.plain.microG(); err != nil {
			return struct{}{}, err
		}
		if e.SoftG, err = e.plain.softG(); err != nil {
			return struct{}{}, err
		}
		if e.MicroGTMR, err = e.tmr.microG(); err != nil {
			return struct{}{}, err
		}
		if e.SoftGTMR, err = e.tmr.softG(); err != nil {
			return struct{}{}, err
		}
		e.Job, e.JobTMR = e.plain.job(), e.tmr.job()
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// app returns the cached state of the named application, creating it on
// first use with the study's chip and the checkpoint spec ck. It builds
// nothing. Unknown names are refused before anything is inserted, so names
// from the wire cannot grow the map.
func (s *Study) app(name string, ck microfi.CheckpointSpec) (*AppEval, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.apps[name]; ok {
		return e, nil
	}
	a, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	e := newAppEval(a, s.Cfg, ck)
	s.apps[name] = e
	return e, nil
}

// variants returns every variant of every application looked up so far.
func (s *Study) variants() []*variant {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*variant
	for _, e := range s.apps {
		e.selMu.Lock()
		out = append(out, e.plain, e.tmr)
		for _, v := range e.sel {
			out = append(out, v)
		}
		e.selMu.Unlock()
	}
	return out
}

// plainJob returns the named application's job, building nothing else.
func (s *Study) plainJob(appName string) (*device.Job, error) {
	_, v, err := s.resolve(PointSpec{Layer: LayerMicro, App: appName})
	if err != nil {
		return nil, err
	}
	return v.job(), nil
}

// CheckpointCounts aggregates fork/converge statistics and the snapshot
// inventory across every cycle-level golden run built so far, of every
// variant. Safe to call concurrently with running campaigns; golden runs
// still building are skipped.
func (s *Study) CheckpointCounts() microfi.CheckpointCounts {
	var c microfi.CheckpointCounts
	for _, v := range s.variants() {
		if g, ok := v.micro.ready(); ok {
			c.Add(g.CheckpointCounts())
		}
	}
	return c
}

// SoftCheckpointCounts is CheckpointCounts for the software level: the
// CTA-boundary checkpoints of every functional golden run built so far and
// the work fork-and-join saved the soft campaigns. Kept apart from
// CheckpointCounts, which reports the cycle simulator alone.
func (s *Study) SoftCheckpointCounts() softfi.CheckpointCounts {
	var c softfi.CheckpointCounts
	for _, v := range s.variants() {
		if g, ok := v.soft.ready(); ok {
			c.Add(g.CheckpointCounts())
		}
	}
	return c
}

// Tally runs (or recalls) the campaign of one point: any layer, structure or
// mode, protection (plain, Hardened, or a Harden subset) and fault model.
// It is the study's one memoised body; the memo key is the identity of the
// point after its protection is canonicalised, so every spelling of a point
// — and every figure that needs it — shares one campaign, run at its
// PointSeed.
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
		if tl, err = s.RunAt(spec, PointSeed(s.Seed, spec)); err != nil {
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
	tl, err := s.Tally(spec)
	if err != nil {
		return campaign.Tally{}, 0, err
	}
	df, err := s.df(spec)
	return tl, df, err
}

// df is the derating factor of a micro-level point's target on the golden
// run of the variant it injects into.
func (s *Study) df(spec PointSpec) (float64, error) {
	spec, v, err := s.resolve(spec)
	if err != nil {
		return 0, err
	}
	g, err := v.microG()
	if err != nil {
		return 0, err
	}
	return v.target(spec, nil).DF(g), nil
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
	_, v, err := s.resolve(spec)
	if err != nil {
		return metrics.Breakdown{}, nil, 0, err
	}
	g, err := v.microG()
	if err != nil {
		return metrics.Breakdown{}, nil, 0, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	runs := 0
	for _, k := range v.e.App.Kernels {
		spec.Kernel = k
		structs, n, err := s.kernelStructs(spec, sts)
		if err != nil {
			return metrics.Breakdown{}, nil, 0, err
		}
		parts = append(parts, metrics.SubsetAVF(s.Cfg, structs))
		weights = append(weights, kernelCycles(g, k))
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
// calls for these points reuse them. Provably dead RF, SMEM and cache draws
// are pruned when the study's checkpoint spec is enabled (Study.Checkpoint).
func (s *Study) KernelAVFStratified(appName, kernel string, hardened bool, pol adaptive.StratifiedPolicy) (metrics.Breakdown, []metrics.StructAVF, []adaptive.StratumResult, error) {
	spec := PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Hardened: hardened,
		Sampling: &SamplingPolicy{Margin: pol.Margin, Batch: pol.Batch}}
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

	g, err := v.microG()
	if err != nil {
		return metrics.Breakdown{}, nil, nil, err
	}
	var structs []metrics.StructAVF
	s.mu.Lock()
	for i, st := range gpu.Structures {
		spec.Structure = st
		tl := results[i].Tally
		s.tallies[spec.identity()] = tl
		structs = append(structs, metrics.NewStructAVF(st, tl, v.target(spec, nil).DF(g)))
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
	spec := PointSpec{Layer: LayerSoft, App: appName, Mode: mode, Hardened: hardened}
	_, v, err := s.resolve(spec)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	g, err := v.softG()
	if err != nil {
		return metrics.Breakdown{}, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range v.e.App.Kernels {
		spec.Kernel = k
		tl, err := s.Tally(spec)
		if err != nil {
			return metrics.Breakdown{}, err
		}
		parts = append(parts, metrics.FromTally(tl))
		var w float64
		if kc := g.Res.PerKernel[k]; kc != nil {
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
	g, _, err := s.Golden(PointSpec{Layer: LayerMicro, App: appName})
	if err != nil {
		return nil, nil, err
	}
	ks := g.Res.PerKernel[kernel]
	if ks == nil {
		return nil, nil, fmt.Errorf("%s: kernel %s not found", appName, kernel)
	}
	var spans []sim.LaunchSpan
	for _, sp := range g.Res.Spans {
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
