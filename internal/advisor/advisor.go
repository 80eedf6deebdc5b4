// Package advisor plans selective hardening: given a per-kernel
// vulnerability measurement backend, the measured cycle overhead of every
// protection subset and an SDC budget, it picks the cheapest subset whose
// predicted SDC meets the budget and then verifies the plan with a real
// campaign on the selectively hardened job.
//
// The advisor closes the loop over the rest of the repo: the measurement
// backend is the study stack (adaptive Wilson-CI campaigns per kernel,
// fault-free golden runs of every hardened variant for cost), the transform
// is harden.Selective, and the verification is an ordinary app-AVF campaign
// on the planned job — so all fault models and the fleet distribution path
// apply unchanged.
//
// Everything is deterministic and journaled: the runner emits its full
// State after every completed unit of work, and Resume skips units already
// present in a recovered State, so a killed search resumes to a
// bit-identical plan.
package advisor

import (
	"fmt"
	"sort"
	"strings"
)

// KernelMeasure is the measurement phase's verdict on one kernel: how much
// it matters (Weight, SDC) and what protecting it buys (SDCHardened, with
// HardMult re-weighting the protected kernel in predictions).
type KernelMeasure struct {
	Kernel string `json:"kernel"`
	// Weight is the kernel's share basis: its golden-run cycle count on the
	// unhardened job.
	Weight float64 `json:"weight"`
	// HardMult is the kernel's cycle multiplier under TMR (hardened cycles /
	// plain cycles), used to re-weight protected kernels in predictions.
	HardMult float64 `json:"hard_mult"`
	// SDC and SDCHardened are the kernel's measured chip-level SDC AVF on
	// the plain and full-TMR variants of the app.
	SDC         float64 `json:"sdc"`
	SDCHardened float64 `json:"sdc_hardened"`
}

// Plan is the search result: the protection set, its predicted SDC, and
// the measured cycle overheads of the set and of full TMR.
type Plan struct {
	App    string  `json:"app"`
	Budget float64 `json:"budget"`
	// Protect is the chosen protection set, sorted.
	Protect      []string `json:"protect"`
	PredictedSDC float64  `json:"predicted_sdc"`
	// Overhead is the golden-run cycle overhead of the planned job vs the
	// unhardened job; FullOverhead the same for full TMR.
	Overhead     float64 `json:"overhead"`
	FullOverhead float64 `json:"full_overhead"`
}

// Verification is the measured truth about a plan: a full campaign on the
// selectively hardened job.
type Verification struct {
	// SDC is the measured chip-level SDC AVF of the planned job.
	SDC float64 `json:"sdc"`
	// PerKernel is the per-kernel SDC breakdown of the verified job.
	PerKernel map[string]float64 `json:"per_kernel,omitempty"`
	// TotalRuns counts injection runs spent in verification.
	TotalRuns int `json:"total_runs"`
	// Pass reports whether the measured SDC met the budget.
	Pass bool `json:"pass"`
}

// Phases of an advise run, in order.
const (
	PhaseMeasure = "measure"
	PhaseSearch  = "search"
	PhaseVerify  = "verify"
	PhaseDone    = "done"
)

// State is the journaled progress of one advise run. It is emitted whole
// after every completed unit of work; a run resumed from a State skips the
// units it already contains and reproduces the remainder bit-identically.
type State struct {
	Version int     `json:"version"`
	App     string  `json:"app"`
	Budget  float64 `json:"budget"`
	Phase   string  `json:"phase"`
	// Measures accumulates during PhaseMeasure, one unit per kernel.
	Measures map[string]KernelMeasure `json:"measures,omitempty"`
	// Overheads is the measured cycle overhead of every non-empty protection
	// subset, keyed by subset name ("K1+K3"). All of it lands as one unit.
	Overheads    map[string]float64 `json:"overheads,omitempty"`
	Plan         *Plan              `json:"plan,omitempty"`
	Verification *Verification      `json:"verification,omitempty"`
}

// StateVersion is the journal schema version written into State.Version.
const StateVersion = 2

// ErrBudgetUnattainable is returned (wrapped) when no protection subset is
// predicted to meet the budget: the plan is refused before any verification
// runs are spent. BestSDC is the lowest prediction over all subsets.
type ErrBudgetUnattainable struct {
	Budget  float64
	BestSDC float64
}

func (e *ErrBudgetUnattainable) Error() string {
	return fmt.Sprintf("advisor: budget %.6g unattainable: the best protection set predicts SDC %.6g", e.Budget, e.BestSDC)
}

// ErrPlanRefused is returned when the verification campaign measures an SDC
// above the budget: the advisor refuses to bless the plan.
type ErrPlanRefused struct {
	Budget      float64
	MeasuredSDC float64
	Plan        *Plan
}

func (e *ErrPlanRefused) Error() string {
	return fmt.Sprintf("advisor: plan refused: measured SDC %.6g exceeds budget %.6g", e.MeasuredSDC, e.Budget)
}

// sortedKernels returns the measurement map's keys in sorted order —
// the single iteration order every phase uses, keeping runs deterministic
// and relint's map-order rule happy.
func sortedKernels(m map[string]KernelMeasure) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //relint:allow map-order: sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// subsetName is a sorted protection subset's key in State.Overheads: its
// kernel names joined by "+" ("K1+K3"), the spelling of
// harden.Set.Canonical.
func subsetName(set []string) string { return strings.Join(set, "+") }

// subsets lists every subset of kernels, the empty set first. Each subset
// keeps the order of kernels.
func subsets(kernels []string) [][]string {
	out := make([][]string, 0, 1<<len(kernels))
	for mask := 0; mask < 1<<len(kernels); mask++ {
		var set []string
		for i, k := range kernels {
			if mask&(1<<i) != 0 {
				set = append(set, k)
			}
		}
		out = append(out, set)
	}
	return out
}
