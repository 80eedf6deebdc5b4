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

	"gpurel/internal/ace"
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

	mu    sync.Mutex
	apps  map[string]*AppEval
	micro map[microKey]campaign.Tally
	soft  map[softKey]campaign.Tally
}

// NewStudy returns a study over the default scaled-Volta chip.
func NewStudy(runs int, seed int64) *Study {
	return &Study{
		Cfg:   gpu.Volta(),
		Runs:  runs,
		Seed:  seed,
		apps:  map[string]*AppEval{},
		micro: map[microKey]campaign.Tally{},
		soft:  map[softKey]campaign.Tally{},
	}
}

// Apps returns the 11 benchmark applications in the paper's order.
func (s *Study) Apps() []kernels.App { return kernels.All() }

// AppEval is the cached per-application state: plain and hardened jobs with
// their golden runs on both simulators, plus (built on first pruned campaign)
// the register-file liveness maps of the golden runs.
type AppEval struct {
	App kernels.App

	Job       *device.Job
	MicroG    *microfi.GoldenRun
	SoftG     *softfi.GoldenRun
	JobTMR    *device.Job
	MicroGTMR *microfi.GoldenRun
	SoftGTMR  *softfi.GoldenRun

	liveOnce [2]sync.Once // [plain, hardened]
	live     [2]*ace.Liveness
	liveErr  [2]error

	staticOnce sync.Once
	static     *microfi.StaticIntervals
	staticErr  error

	selMu sync.Mutex
	sel   map[string]*selEval // selective variants, keyed by Set.Canonical()
}

// selEval is one cached selectively-hardened variant of an application:
// the harden.Selective job, its micro golden run, and (on first pruned
// campaign) its RF liveness map. Proper subsets only — the empty and full
// protection sets normalize to the plain and TMR states of AppEval.
type selEval struct {
	once sync.Once
	Job  *device.Job
	G    *microfi.GoldenRun
	err  error

	liveOnce sync.Once
	live     *ace.Liveness
	liveErr  error
}

// selective returns (building and caching on first use) the selectively
// hardened variant of the application for a canonical protection set.
func (e *AppEval) selective(cfg gpu.Config, ck microfi.CheckpointSpec, set harden.Set) (*selEval, error) {
	key := set.Canonical()
	e.selMu.Lock()
	if e.sel == nil {
		e.sel = map[string]*selEval{}
	}
	se, ok := e.sel[key]
	if !ok {
		se = &selEval{}
		e.sel[key] = se
	}
	e.selMu.Unlock()
	se.once.Do(func() {
		se.Job = harden.Selective(e.Job, set)
		se.G, se.err = microfi.GoldenCheckpointed(se.Job, cfg, ck)
	})
	if se.err != nil {
		return nil, fmt.Errorf("%s+SEL(%s): %w", e.App.Name, key, se.err)
	}
	return se, nil
}

// liveness traces (once) the RF liveness map of the selective golden run.
func (se *selEval) liveness(cfg gpu.Config) (*ace.Liveness, error) {
	se.liveOnce.Do(func() {
		se.live, se.liveErr = ace.TraceRF(se.Job, cfg)
	})
	return se.live, se.liveErr
}

// liveness returns (tracing on first use) the RF liveness map of the plain or
// hardened golden run.
func (e *AppEval) liveness(cfg gpu.Config, hardened bool) (*ace.Liveness, error) {
	i, job := 0, e.Job
	if hardened {
		i, job = 1, e.JobTMR
	}
	e.liveOnce[i].Do(func() {
		e.live[i], e.liveErr[i] = ace.TraceRF(job, cfg)
	})
	return e.live[i], e.liveErr[i]
}

// staticIntervals traces (once) the static ACE-interval map of the plain
// job — one fault-free run, no injections; the advisor's zero-cost
// pre-ranking stage reads its static AVF bounds.
func (e *AppEval) staticIntervals(cfg gpu.Config) (*microfi.StaticIntervals, error) {
	e.staticOnce.Do(func() {
		e.static, e.staticErr = microfi.TraceStatic(e.Job, cfg)
	})
	return e.static, e.staticErr
}

type microKey struct {
	app, kernel string
	structure   gpu.Structure
	hardened    bool
	fault       string // faultmodel.Spec.Canonical(); "" = transient single-bit
	harden      string // harden.Set.Canonical(); "" = no selective protection
}

type softKey struct {
	app, kernel string
	mode        softfi.Mode
	hardened    bool
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
	// Prune enables liveness-guided pruning of register-file injections:
	// provably-dead sites classify as Masked from the golden run's liveness
	// map instead of being simulated. Classifications are bit-identical to
	// brute force (microfi.InjectPruned).
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
	// non-empty set feeds PointSeed; study entry points normalize the empty
	// set to the plain job and a set covering every kernel to Hardened=true,
	// so those boundary points share seeds and memo entries with the legacy
	// campaigns (the harden.Selective bit-identity property).
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

// PointSeed derives the campaign seed of a point from a base seed, exactly
// as Study's memoised tallies always have: base + FNV-1a of the point's
// identity string. Run i of the point then uses rand.NewSource(seed+i)
// (campaign.RunRange), which is what makes points resumable anywhere.
func PointSeed(base int64, spec PointSpec) int64 {
	switch spec.Layer {
	case LayerSoft:
		return base + int64(hashKey(fmt.Sprintf("soft|%s|%s|%d|%v", spec.App, spec.Kernel, spec.Mode, spec.Hardened)))
	default:
		id := fmt.Sprintf("micro|%s|%s|%d|%v", spec.App, spec.Kernel, spec.Structure, spec.Hardened)
		// The fault model is part of the point's identity — it changes what
		// is measured — but the default (transient single-bit) is appended as
		// nothing at all, so seeds of every pre-fault-model campaign are
		// unchanged and historical tallies remain reproducible.
		if c := spec.faultSpec().Canonical(); c != "" {
			id += "|fault=" + c
		}
		// Likewise for selective hardening: a proper protection subset is a
		// new point identity, while the boundary sets are normalized away
		// before seeding and so contribute nothing here.
		if c := spec.hardenSet().Canonical(); c != "" {
			id += "|harden=" + c
		}
		return base + int64(hashKey(id))
	}
}

// PointExperiment builds (caching golden runs on first use) the injection
// closure of one campaign point. The returned Experiment is safe for
// concurrent calls and deterministic per (run, rng) — the entry point the
// campaign service schedules run-ranges against.
func (s *Study) PointExperiment(spec PointSpec) (campaign.Experiment, error) {
	ck := s.Checkpoint
	if spec.Checkpoint != nil {
		ck = *spec.Checkpoint
	}
	e, err := s.evalWith(spec.App, ck)
	if err != nil {
		return nil, err
	}
	switch spec.Layer {
	case LayerMicro:
		fspec := spec.faultSpec()
		if err := fspec.ValidateFor(spec.Structure); err != nil {
			return nil, err
		}
		mdl, err := fspec.Build()
		if err != nil {
			return nil, err
		}
		job, g := e.Job, e.MicroG
		includeVote := spec.Hardened
		liveness := func() (*ace.Liveness, error) { return e.liveness(s.Cfg, spec.Hardened) }
		switch {
		case len(spec.Harden) > 0:
			if spec.Hardened {
				return nil, fmt.Errorf("point mixes hardened with a selective protection set")
			}
			set := spec.hardenSet()
			if set.Covers(e.Job) {
				// Full-set selective = TMR, bit for bit; share its golden.
				job, g, includeVote = e.JobTMR, e.MicroGTMR, true
				liveness = func() (*ace.Liveness, error) { return e.liveness(s.Cfg, true) }
				break
			}
			se, err := e.selective(s.Cfg, ck, set)
			if err != nil {
				return nil, err
			}
			// The vote belongs to the protected kernels' workflow: its
			// windows count toward a kernel exactly when that kernel is in
			// the protection set.
			job, g, includeVote = se.Job, se.G, set.Has(spec.Kernel)
			liveness = func() (*ace.Liveness, error) { return se.liveness(s.Cfg) }
		case spec.Hardened:
			job, g = e.JobTMR, e.MicroGTMR
		}
		t := microfi.Target{Structure: spec.Structure, Kernel: spec.Kernel, IncludeVote: includeVote, Model: mdl}
		// The liveness map is the only evidence a study point can hold; with
		// none, InjectPruned is exactly Inject and every run counts as
		// simulated.
		var lv *ace.Liveness
		if spec.Sampling != nil && spec.Sampling.Prune && spec.Structure == gpu.RF {
			if lv, err = liveness(); err != nil {
				return nil, fmt.Errorf("%s: %w", spec.App, err)
			}
		}
		return s.Counters.Instrument(func(run int, rng *rand.Rand) (faults.Result, bool) {
			return microfi.InjectPruned(job, g, lv, t, rng)
		}), nil
	case LayerSoft:
		if !spec.faultSpec().IsDefault() {
			return nil, fmt.Errorf("fault models apply to the micro layer only")
		}
		if len(spec.Harden) > 0 {
			return nil, fmt.Errorf("selective hardening applies to the micro layer only")
		}
		job, g := e.Job, e.SoftG
		if spec.Hardened {
			job, g = e.JobTMR, e.SoftGTMR
		}
		t := softfi.Target{Kernel: spec.Kernel, Mode: spec.Mode, IncludeVote: spec.Hardened}
		return s.Counters.Count(func(run int, rng *rand.Rand) faults.Result {
			return softfi.Inject(job, g, t, rng)
		}), nil
	default:
		return nil, fmt.Errorf("unknown campaign layer %q", spec.Layer)
	}
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
// golden runs. Evaluations are cached per app, so the spec only matters the
// first time an app is evaluated.
func (s *Study) evalWith(appName string, ck microfi.CheckpointSpec) (*AppEval, error) {
	s.mu.Lock()
	if e, ok := s.apps[appName]; ok {
		s.mu.Unlock()
		return e, nil
	}
	s.mu.Unlock()

	app, err := kernels.ByName(appName)
	if err != nil {
		return nil, err
	}
	e := &AppEval{App: app, Job: app.Build()}
	if e.MicroG, err = microfi.GoldenCheckpointed(e.Job, s.Cfg, ck); err != nil {
		return nil, fmt.Errorf("%s: %w", appName, err)
	}
	if e.SoftG, err = softfi.Golden(e.Job); err != nil {
		return nil, fmt.Errorf("%s: %w", appName, err)
	}
	e.JobTMR = harden.TMR(e.Job)
	if e.MicroGTMR, err = microfi.GoldenCheckpointed(e.JobTMR, s.Cfg, ck); err != nil {
		return nil, fmt.Errorf("%s+TMR: %w", appName, err)
	}
	if e.SoftGTMR, err = softfi.Golden(e.JobTMR); err != nil {
		return nil, fmt.Errorf("%s+TMR: %w", appName, err)
	}

	s.mu.Lock()
	s.apps[appName] = e
	s.mu.Unlock()
	return e, nil
}

// CheckpointCounts aggregates fork/converge statistics and the snapshot
// inventory across every cached golden run (plain and TMR-hardened). Safe to
// call concurrently with running campaigns.
func (s *Study) CheckpointCounts() microfi.CheckpointCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c microfi.CheckpointCounts
	for _, e := range s.apps {
		if e.MicroG != nil {
			c.Add(e.MicroG.CheckpointCounts())
		}
		if e.MicroGTMR != nil {
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
		c.Add(e.SoftG.CheckpointCounts())
		c.Add(e.SoftGTMR.CheckpointCounts())
	}
	return c
}

// MicroTally runs (or recalls) the microarchitecture-level campaign for one
// (app, kernel, structure) point and returns the tally plus the derating
// factor of the target.
func (s *Study) MicroTally(appName, kernel string, st gpu.Structure, hardened bool) (campaign.Tally, float64, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return campaign.Tally{}, 0, err
	}
	g := e.MicroG
	if hardened {
		g = e.MicroGTMR
	}
	t := microfi.Target{Structure: st, Kernel: kernel, IncludeVote: hardened}
	key := microKey{app: appName, kernel: kernel, structure: st, hardened: hardened}

	s.mu.Lock()
	tl, ok := s.micro[key]
	s.mu.Unlock()
	if !ok {
		tl, err = s.runPoint(PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Structure: st, Hardened: hardened})
		if err != nil {
			return campaign.Tally{}, 0, err
		}
		s.mu.Lock()
		s.micro[key] = tl
		s.mu.Unlock()
	}
	return tl, t.DF(g), nil
}

// SoftTally runs (or recalls) the software-level campaign for one
// (app, kernel, mode) point.
func (s *Study) SoftTally(appName, kernel string, mode softfi.Mode, hardened bool) (campaign.Tally, error) {
	if _, err := s.Eval(appName); err != nil {
		return campaign.Tally{}, err
	}
	key := softKey{appName, kernel, mode, hardened}

	s.mu.Lock()
	tl, ok := s.soft[key]
	s.mu.Unlock()
	if !ok {
		var err error
		tl, err = s.runPoint(PointSpec{Layer: LayerSoft, App: appName, Kernel: kernel, Mode: mode, Hardened: hardened})
		if err != nil {
			return campaign.Tally{}, err
		}
		s.mu.Lock()
		s.soft[key] = tl
		s.mu.Unlock()
	}
	return tl, nil
}

func hashKey(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// KernelAVF measures the full-chip cross-layer AVF of one kernel: one
// campaign per hardware structure, derated, consolidated by structure bit
// counts (§II-B).
func (s *Study) KernelAVF(appName, kernel string, hardened bool) (metrics.Breakdown, []metrics.StructAVF, error) {
	var structs []metrics.StructAVF
	for _, st := range gpu.Structures {
		tl, df, err := s.MicroTally(appName, kernel, st, hardened)
		if err != nil {
			return metrics.Breakdown{}, nil, err
		}
		structs = append(structs, metrics.NewStructAVF(st, tl, df))
	}
	return metrics.ChipAVF(s.Cfg, structs), structs, nil
}

// KernelAVFStratified measures the same full-chip AVF as KernelAVF but
// treats the five hardware structures as strata of one sampling budget:
// after a pilot, Neyman allocation concentrates the remaining runs on the
// structures with the highest weighted failure-rate variance (weights are
// the structures' shares of the chip's storage bits — the same weights
// metrics.ChipAVF recombines with, so precision is spent where it moves the
// chip AVF most). Per-structure tallies are deterministic prefixes of the
// corresponding fixed-n campaigns and are cached, so later MicroTally calls
// for these points reuse them. Liveness pruning of RF runs follows the
// study's Sampling policy.
func (s *Study) KernelAVFStratified(appName, kernel string, hardened bool, pol adaptive.StratifiedPolicy) (metrics.Breakdown, []metrics.StructAVF, []adaptive.StratumResult, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, nil, nil, err
	}
	g := e.MicroG
	if hardened {
		g = e.MicroGTMR
	}
	sampling := &SamplingPolicy{Margin: pol.Margin, Batch: pol.Batch}
	if s.Sampling != nil {
		sampling.Prune = s.Sampling.Prune
	}
	var strata []adaptive.Stratum
	for _, st := range gpu.Structures {
		spec := PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Structure: st, Hardened: hardened, Sampling: sampling}
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
		tl := results[i].Tally
		s.micro[microKey{app: appName, kernel: kernel, structure: st, hardened: hardened}] = tl
		t := microfi.Target{Structure: st, Kernel: kernel, IncludeVote: hardened}
		structs = append(structs, metrics.NewStructAVF(st, tl, t.DF(g)))
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
	if err != nil {
		return metrics.Breakdown{}, err
	}
	return metrics.FromTally(tl), nil
}

// kernelCycles returns the cycle weight of each kernel of an app (golden).
func kernelCycles(g *microfi.GoldenRun, kernel string) float64 {
	var c int64
	for _, sp := range g.Res.Spans {
		if sp.Kernel == kernel {
			c += sp.End - sp.Start
		}
	}
	return float64(c)
}

// AppAVF measures the application AVF: per-kernel AVFs weighted by kernel
// cycles (§II-B).
func (s *Study) AppAVF(appName string, hardened bool) (metrics.Breakdown, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	g := e.MicroG
	if hardened {
		g = e.MicroGTMR
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range e.App.Kernels {
		b, _, err := s.KernelAVF(appName, k, hardened)
		if err != nil {
			return metrics.Breakdown{}, err
		}
		parts = append(parts, b)
		weights = append(weights, kernelCycles(g, k))
	}
	return metrics.Weighted(parts, weights), nil
}

// AppSVF measures the application SVF: per-kernel SVFs weighted by executed
// instruction counts (§II-C).
func (s *Study) AppSVF(appName string, hardened bool) (metrics.Breakdown, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	g := e.SoftG
	if hardened {
		g = e.SoftGTMR
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range e.App.Kernels {
		b, err := s.KernelSVF(appName, k, hardened)
		if err != nil {
			return metrics.Breakdown{}, err
		}
		parts = append(parts, b)
		kc := g.Res.PerKernel[k]
		var w float64
		if kc != nil {
			w = float64(kc.DynInstrs)
		}
		parts[len(parts)-1] = b
		weights = append(weights, w)
	}
	return metrics.Weighted(parts, weights), nil
}

// AppAVFRF measures the application AVF restricted to the register file
// (AVF-RF, Figure 4), cycle-weighted over kernels.
func (s *Study) AppAVFRF(appName string) (metrics.Breakdown, error) {
	return s.appStructAVF(appName, []gpu.Structure{gpu.RF})
}

// AppAVFCache measures AVF over the cache structures only (AVF-Cache,
// Figure 5: L1D + L1T + L2), cycle-weighted over kernels and size-weighted
// within the subset.
func (s *Study) AppAVFCache(appName string) (metrics.Breakdown, error) {
	return s.appStructAVF(appName, []gpu.Structure{gpu.L1D, gpu.L1T, gpu.L2})
}

func (s *Study) appStructAVF(appName string, sts []gpu.Structure) (metrics.Breakdown, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range e.App.Kernels {
		var structs []metrics.StructAVF
		for _, st := range sts {
			tl, df, err := s.MicroTally(appName, k, st, false)
			if err != nil {
				return metrics.Breakdown{}, err
			}
			structs = append(structs, metrics.NewStructAVF(st, tl, df))
		}
		parts = append(parts, metrics.SubsetAVF(s.Cfg, structs))
		weights = append(weights, kernelCycles(e.MicroG, k))
	}
	return metrics.Weighted(parts, weights), nil
}

// AppSVFLD measures the application's load-only SVF (SVF-LD, Figure 5).
func (s *Study) AppSVFLD(appName string) (metrics.Breakdown, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return metrics.Breakdown{}, err
	}
	var parts []metrics.Breakdown
	var weights []float64
	for _, k := range e.App.Kernels {
		tl, err := s.SoftTally(appName, k, softfi.SVFLD, false)
		if err != nil {
			return metrics.Breakdown{}, err
		}
		parts = append(parts, metrics.FromTally(tl))
		kc := e.SoftG.Res.PerKernel[k]
		var w float64
		if kc != nil {
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
