package advisor

import (
	"context"
	"fmt"
)

// Backend is the measurement surface the runner drives. The production
// implementation is the study stack (gpurel.Study); tests substitute a
// synthetic table. All methods must be deterministic for a fixed backend
// configuration — the runner's resume guarantee is only as strong as the
// backend's.
type Backend interface {
	// Kernels lists the app's kernels in schedule order.
	Kernels(ctx context.Context, app string) ([]string, error)
	// Measure produces one kernel's vulnerability measurement (plain and
	// hardened SDC, cycle weight, TMR multiplier).
	Measure(ctx context.Context, app, kernel string) (KernelMeasure, error)
	// Overhead measures the cycle overhead of protecting exactly the given
	// sorted, non-empty kernel subset: cycles(Selective(job, protect)) /
	// cycles(plain). The covering set is full TMR.
	Overhead(ctx context.Context, app string, protect []string) (float64, error)
	// Verify runs the verification campaign on the selectively hardened job
	// and reports its measured SDC position. TotalRuns and Pass are filled
	// in by the runner. A blocked backend should honor ctx so cancellation
	// and daemon shutdown interrupt in-flight units promptly.
	Verify(ctx context.Context, app string, protect []string) (Verification, error)
}

// maxKernels bounds the exhaustive search: pricing takes one golden run per
// subset, 2^k − 1 of them. The largest shipped app has six kernels.
const maxKernels = 10

// Runner executes one advise run: measure every kernel, search for the
// cheapest plan meeting the budget, verify the plan with a real campaign.
type Runner struct {
	Backend Backend
	App     string
	Budget  float64
	// OnState, if set, is called with the full state after every completed
	// unit of work (one kernel measured, every subset priced, the plan
	// found, the verification done). Journal the state there; a later run
	// resumed from the journaled state skips the completed units.
	OnState func(*State)
	// Resume, if set, seeds the run with a previously journaled state, which
	// must carry StateVersion: kernels already measured or subsets already
	// priced are not re-run, and a recorded plan or verification
	// short-circuits those phases entirely.
	Resume *State
}

// Run drives the advise to completion (or ctx cancellation). The returned
// state always reflects everything measured so far, even on error; in
// particular a refused plan returns ErrPlanRefused with the failing
// verification recorded in the state.
func (r *Runner) Run(ctx context.Context) (*State, error) {
	st := r.Resume
	if st == nil {
		st = &State{Version: StateVersion, App: r.App, Budget: r.Budget}
	}
	if st.Version != StateVersion {
		return st, fmt.Errorf("advisor: resume state has version %d, want %d", st.Version, StateVersion)
	}
	if st.App != r.App || st.Budget != r.Budget {
		return st, fmt.Errorf("advisor: resume state is for app %q budget %g, not app %q budget %g", st.App, st.Budget, r.App, r.Budget)
	}
	if st.Measures == nil {
		st.Measures = map[string]KernelMeasure{}
	}
	emit := func() {
		if r.OnState != nil {
			r.OnState(st)
		}
	}

	// Phase 1: measure. One unit per kernel for vulnerability, each
	// journaled as it lands so a kill loses at most one unit, then one unit
	// pricing every non-empty protection subset.
	st.Phase = PhaseMeasure
	kernels, err := r.Backend.Kernels(ctx, r.App)
	if err != nil {
		return st, err
	}
	if len(kernels) > maxKernels {
		return st, fmt.Errorf("advisor: %s has %d kernels, the exhaustive search takes at most %d", r.App, len(kernels), maxKernels)
	}
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if _, ok := st.Measures[k]; ok {
			continue
		}
		m, err := r.Backend.Measure(ctx, r.App, k)
		if err != nil {
			return st, fmt.Errorf("measure %s/%s: %w", r.App, k, err)
		}
		st.Measures[k] = m
		emit()
	}
	if st.Overheads == nil {
		overheads := map[string]float64{}
		for _, set := range subsets(sortedKernels(st.Measures))[1:] {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			o, err := r.Backend.Overhead(ctx, r.App, set)
			if err != nil {
				return st, fmt.Errorf("overhead %s/%s: %w", r.App, subsetName(set), err)
			}
			overheads[subsetName(set)] = o
		}
		st.Overheads = overheads
		emit()
	}

	// Phase 2: search. Pure function of the journaled measurements, so a
	// resumed run re-derives (or reuses) the identical plan.
	st.Phase = PhaseSearch
	if st.Plan == nil {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		plan, err := Search(r.App, r.Budget, st.Measures, st.Overheads)
		if err != nil {
			return st, err
		}
		st.Plan = plan
		emit()
	}

	// Phase 3: verify. A full campaign on the planned job; the advisor
	// refuses to bless a plan whose measured SDC misses the budget.
	st.Phase = PhaseVerify
	if st.Verification == nil {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		v, err := r.Backend.Verify(ctx, r.App, st.Plan.Protect)
		if err != nil {
			return st, fmt.Errorf("verify %s: %w", r.App, err)
		}
		v.Pass = v.SDC <= r.Budget
		st.Verification = &v
		emit()
	}

	st.Phase = PhaseDone
	emit()
	if !st.Verification.Pass {
		return st, &ErrPlanRefused{Budget: r.Budget, MeasuredSDC: st.Verification.SDC, Plan: st.Plan}
	}
	return st, nil
}
