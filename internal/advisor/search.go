package advisor

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// predictedSDC estimates the app SDC AVF under a protection set from the
// per-kernel measurements: each kernel contributes its plain or hardened
// per-kernel SDC, weighted by its cycle share — with protected kernels
// re-weighted by their TMR cycle multiplier, mirroring how the study
// weights per-kernel AVFs by the golden run the variant actually executes.
func predictedSDC(measures map[string]KernelMeasure, protect map[string]bool) float64 {
	var num, den float64
	for _, k := range sortedKernels(measures) {
		m := measures[k]
		w, sdc := m.Weight, m.SDC
		if protect[k] {
			mult := m.HardMult
			if mult <= 0 {
				mult = 1
			}
			w *= mult
			sdc = m.SDCHardened
		}
		num += w * sdc
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Search is an exhaustive search over every protection subset: among the
// subsets whose predicted SDC meets the budget it returns the one with the
// lowest measured overhead. Ties go to the lower predicted SDC, then to
// fewer kernels, then to the smaller subset name, so the plan is a pure
// function of its inputs. overheads holds the measured overhead of every
// non-empty subset, keyed by subset name; the empty set costs exactly 1. If
// no subset meets the budget the search refuses with ErrBudgetUnattainable.
func Search(app string, budget float64, measures map[string]KernelMeasure, overheads map[string]float64) (*Plan, error) {
	kernels := sortedKernels(measures)
	full, ok := overheads[subsetName(kernels)]
	if !ok {
		return nil, fmt.Errorf("advisor: no overhead for the full set %q", subsetName(kernels))
	}
	var best *Plan
	bestSDC := math.Inf(1)
	for _, set := range subsets(kernels) {
		protect := make(map[string]bool, len(set))
		for _, k := range set {
			protect[k] = true
		}
		sdc := predictedSDC(measures, protect)
		bestSDC = min(bestSDC, sdc)
		if sdc > budget {
			continue
		}
		o := 1.0
		if len(set) > 0 {
			if o, ok = overheads[subsetName(set)]; !ok {
				return nil, fmt.Errorf("advisor: no overhead for subset %q", subsetName(set))
			}
		}
		p := &Plan{App: app, Budget: budget, Protect: set, PredictedSDC: sdc, Overhead: o, FullOverhead: full}
		if best == nil || cheaper(p, best) {
			best = p
		}
	}
	if best == nil {
		return nil, &ErrBudgetUnattainable{Budget: budget, BestSDC: bestSDC}
	}
	return best, nil
}

// cheaper orders candidate plans: lower overhead, then lower predicted SDC,
// then fewer kernels, then the smaller subset name.
func cheaper(a, b *Plan) bool {
	return cmp.Or(
		cmp.Compare(a.Overhead, b.Overhead),
		cmp.Compare(a.PredictedSDC, b.PredictedSDC),
		cmp.Compare(len(a.Protect), len(b.Protect)),
		strings.Compare(subsetName(a.Protect), subsetName(b.Protect)),
	) < 0
}
