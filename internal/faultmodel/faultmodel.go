// Package faultmodel defines the pluggable fault models of the injection
// layer: what kind of defect an experiment plants, where it can land, and
// how long it persists. The historical injector hard-coded one model — a
// transient single-bit flip in a storage array (a particle strike) — which
// this package refactors into one implementation of a small interface,
// alongside three families the literature shows behave qualitatively
// differently:
//
//   - StuckAt: a permanent stuck-at-0/1 cell. The defective bit is forced
//     from the injection cycle to the end of the run, at the top of every
//     cycle in which the machine can have changed, so writes cannot heal it.
//   - SpatialMBU: a spatially-correlated multi-bit upset — adjacent bits
//     within a word and adjacent rows (registers, bytes, cache lines)
//     within the structure, corrupted once.
//   - Control: a flip or stuck-at in control state outside the storage
//     arrays — warp-scheduler entries, SIMT divergence-stack entries, or
//     CTA barrier latches (gpu.Sched/Stack/Barrier sites).
//
// The campaign algebra above this package (sampling, adaptive stopping,
// pruning, checkpointing, fleet distribution) is model-agnostic; the one
// interaction that is not — convergence joins are unsound while a fault
// stays armed — is keyed off Model.Persistent by the injector.
//
// Determinism contract: Arm must consume the rand stream identically for a
// given (model, structure) regardless of machine state details, and
// appliers must be pure functions of the machine so that checkpointed and
// brute-force runs of the same (seed, run) pair stay bit-identical.
package faultmodel

import (
	"fmt"
	"math/rand"

	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// Applier re-asserts a persistent fault. From the injection cycle to the end
// of the run the injector invokes it at the top of every cycle in which the
// machine can have changed since the previous call (sim.Options.EachCycle:
// the simulator takes a span of cycles in which nothing is placed, issued or
// retired in one step). That is bit-identical to invoking it every cycle
// because an applier must be idempotent and a pure function of the machine
// it is handed — never of the cycle number or of how often it has run. It
// must also bounds-check its site (resident CTAs come and go under a
// physical-slot fault).
type Applier func(*sim.Machine)

// Model is one fault-model family, instantiated with its parameters.
type Model interface {
	// Name is the model's canonical label, used in tables and reports.
	Name() string
	// Persistent reports whether the fault stays armed after injection —
	// if so the injector keeps re-applying it (see Applier) and must not
	// attempt convergence joins against fault-free reference state.
	Persistent() bool
	// WordBits is the fault's adjacent-bit footprint within one ECC word,
	// used by the SEC-DED preflight screen (1 corrected, 2 detected, wider
	// escapes). 0 means the fault bypasses ECC entirely (control state in
	// flip-flops carries no code word).
	WordBits() int
	// Arm selects a fault site on the live machine and corrupts it for the
	// first time. It returns a non-nil Applier when the fault persists
	// (the injector then keeps re-applying it), and whether any site
	// was hit (false when the structure has nothing allocated/resident at
	// the injection cycle).
	Arm(m *sim.Machine, s gpu.Structure, rng *rand.Rand) (Applier, bool)
}

// Model names accepted on the wire and the CLIs. An empty model string
// means ModelTransient (the legacy default).
const (
	ModelTransient = "transient"
	ModelStuck     = "stuck"
	ModelMBU       = "mbu"
	ModelControl   = "control"
)

// Spec is the serializable description of a fault model — the nested
// fault{...} group of the v1 wire schema and the CLI flags. The zero Spec
// is the legacy transient single-bit flip.
type Spec struct {
	// Model selects the family: "", "transient", "stuck", "mbu", "control".
	Model string `json:"model,omitempty"`
	// Stuck is the forced value (0 or 1). Required for "stuck"; optional
	// for "control", where its presence turns the one-shot control flip
	// into a permanent forced latch. A pointer so absence is distinct
	// from stuck-at-0.
	Stuck *int `json:"stuck,omitempty"`
	// Width is the adjacent-bit footprint within a word: the burst width
	// for "transient" (0/1 = single bit) and the per-word bit count for
	// "mbu".
	Width int `json:"width,omitempty"`
	// Lines is the number of adjacent rows (registers, bytes, cache
	// lines) an "mbu" corrupts (0/1 = one row).
	Lines int `json:"lines,omitempty"`
}

// Spec parameter bounds: a word is at most 32 bits, and a physically
// plausible MBU cluster spans a handful of rows.
const (
	MaxWidth = 32
	MaxLines = 8
)

// norm returns the spec with defaults made explicit (empty model name
// resolved, zero width/lines raised to 1 where the family uses them).
func (s Spec) norm() Spec {
	if s.Model == "" {
		s.Model = ModelTransient
	}
	if s.Width < 1 {
		s.Width = 1
	}
	if s.Lines < 1 {
		s.Lines = 1
	}
	return s
}

// Validate checks the spec's internal consistency (structure pairing is
// checked separately by ValidateFor, where the target is known).
func (s Spec) Validate() error {
	n := s.norm()
	switch n.Model {
	case ModelTransient:
		if s.Stuck != nil {
			return fmt.Errorf("fault model %q does not take stuck", n.Model)
		}
		if s.Lines > 1 {
			return fmt.Errorf("fault model %q does not take lines (use model mbu)", n.Model)
		}
	case ModelStuck:
		if s.Stuck == nil {
			return fmt.Errorf("fault model stuck requires stuck: 0 or 1")
		}
		if s.Width > 1 || s.Lines > 1 {
			return fmt.Errorf("fault model stuck is a single cell; width/lines not allowed")
		}
	case ModelMBU:
		if s.Stuck != nil {
			return fmt.Errorf("fault model %q does not take stuck", n.Model)
		}
	case ModelControl:
		if s.Width > 1 || s.Lines > 1 {
			return fmt.Errorf("fault model control targets single latches; width/lines not allowed")
		}
	default:
		return fmt.Errorf("unknown fault model %q", s.Model)
	}
	if s.Stuck != nil && *s.Stuck != 0 && *s.Stuck != 1 {
		return fmt.Errorf("stuck must be 0 or 1, got %d", *s.Stuck)
	}
	if s.Width < 0 || n.Width > MaxWidth {
		return fmt.Errorf("width must be in [0,%d], got %d", MaxWidth, s.Width)
	}
	if s.Lines < 0 || n.Lines > MaxLines {
		return fmt.Errorf("lines must be in [0,%d], got %d", MaxLines, s.Lines)
	}
	return nil
}

// ValidateFor additionally checks the spec against its target structure:
// control sites take only the control model, storage arrays everything else.
func (s Spec) ValidateFor(st gpu.Structure) error {
	if err := s.Validate(); err != nil {
		return err
	}
	isCtl := s.norm().Model == ModelControl
	if st.IsControl() != isCtl {
		if isCtl {
			return fmt.Errorf("fault model control requires a control structure (SCHED/STACK/BARRIER), got %v", st)
		}
		return fmt.Errorf("structure %v requires fault model control", st)
	}
	return nil
}

// Build validates the spec and instantiates its model. A one-row MBU is the
// transient burst of its width (see SpatialMBU) and builds as Transient, so
// its draws prune like the burst's; its identity (Canonical) stays
// "mbu:w…:l1", which keeps its seeds.
func (s Spec) Build() (Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.norm()
	switch n.Model {
	case ModelTransient:
		return Transient{Width: n.Width}, nil
	case ModelStuck:
		return StuckAt{V: *s.Stuck}, nil
	case ModelMBU:
		if n.Lines == 1 {
			return Transient{Width: n.Width}, nil
		}
		return SpatialMBU{Width: n.Width, Lines: n.Lines}, nil
	case ModelControl:
		return ControlFault{Stuck: s.Stuck}, nil
	}
	panic("faultmodel: Validate admitted unknown model " + s.Model)
}

// IsDefault reports whether the spec describes the legacy default —
// a transient single-bit flip. Default specs contribute nothing to
// experiment seeds, keeping every pre-existing campaign bit-identical.
func (s Spec) IsDefault() bool { return s.Canonical() == "" }

// Canonical renders the spec as a stable identity string: "" for the
// default, else a compact normalized form ("stuck0", "mbu:w2:l2",
// "transient:w3", "control", "control:stuck1"). Experiment seeds and memo
// keys hash it, so two spellings of the same fault collide and any
// parameter change reseeds.
func (s Spec) Canonical() string {
	n := s.norm()
	switch n.Model {
	case ModelTransient:
		if n.Width <= 1 {
			return ""
		}
		return fmt.Sprintf("transient:w%d", n.Width)
	case ModelStuck:
		v := 0
		if s.Stuck != nil {
			v = *s.Stuck
		}
		return fmt.Sprintf("stuck%d", v)
	case ModelMBU:
		return fmt.Sprintf("mbu:w%d:l%d", n.Width, n.Lines)
	case ModelControl:
		if s.Stuck != nil {
			return fmt.Sprintf("control:stuck%d", *s.Stuck)
		}
		return "control"
	}
	return s.Model // invalid; Validate will reject before use
}

// Label is the human-facing name for tables: "transient" for the default
// instead of the canonical empty string.
func (s Spec) Label() string {
	if c := s.Canonical(); c != "" {
		return c
	}
	return ModelTransient
}

// Ptr returns a pointer to v; convenience for building Spec.Stuck literals.
func Ptr(v int) *int { return &v }
