package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fakeBackend is a synthetic measurement table. Verify models the measured
// SDC as the weighted prediction over the table (plus an optional skew), so
// plans verify exactly unless a test wants them refused.
type fakeBackend struct {
	kernels   []string
	measures  map[string]KernelMeasure
	overheads map[string]float64 // every non-empty subset, by subset name
	skew      float64            // added to verified SDC
	calls     map[string]int
}

func (f *fakeBackend) count(unit string) {
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	f.calls[unit]++
}

func (f *fakeBackend) Kernels(ctx context.Context, app string) ([]string, error) {
	return append([]string(nil), f.kernels...), nil
}

func (f *fakeBackend) Measure(ctx context.Context, app, kernel string) (KernelMeasure, error) {
	f.count("measure:" + kernel)
	m, ok := f.measures[kernel]
	if !ok {
		return KernelMeasure{}, errors.New("unknown kernel " + kernel)
	}
	return m, nil
}

func (f *fakeBackend) Overhead(ctx context.Context, app string, protect []string) (float64, error) {
	f.count("overhead")
	o, ok := f.overheads[subsetName(protect)]
	if !ok {
		return 0, errors.New("unpriced subset " + subsetName(protect))
	}
	return o, nil
}

func (f *fakeBackend) Verify(ctx context.Context, app string, protect []string) (Verification, error) {
	f.count("verify")
	return Verification{SDC: predictedSDC(f.measures, protecting(protect...)) + f.skew, TotalRuns: 100 * len(protect)}, nil
}

// additive prices every non-empty subset of the cost map's kernels at 1 +
// the sum of its members' marginal costs.
func additive(costs map[string]float64) map[string]float64 {
	kernels := make([]string, 0, len(costs))
	for k := range costs {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	out := map[string]float64{}
	for _, set := range subsets(kernels)[1:] {
		o := 1.0
		for _, k := range set {
			o += costs[k]
		}
		out[subsetName(set)] = o
	}
	return out
}

// threeKernelBackend: K2 dominates the SDC, K1 is cheap insurance, K3 is
// expensive and nearly invulnerable.
func threeKernelBackend() *fakeBackend {
	return &fakeBackend{
		kernels: []string{"K1", "K2", "K3"},
		measures: map[string]KernelMeasure{
			"K1": {Kernel: "K1", Weight: 100, HardMult: 3, SDC: 0.02, SDCHardened: 0.001},
			"K2": {Kernel: "K2", Weight: 300, HardMult: 3, SDC: 0.08, SDCHardened: 0.002},
			"K3": {Kernel: "K3", Weight: 50, HardMult: 3.2, SDC: 0.005, SDCHardened: 0.001},
		},
		overheads: additive(map[string]float64{"K1": 1.2, "K2": 1.4, "K3": 0.5}),
	}
}

// protecting is the protection-set map predictedSDC takes.
func protecting(kernels ...string) map[string]bool {
	m := map[string]bool{}
	for _, k := range kernels {
		m[k] = true
	}
	return m
}

// TestSearchFullSetDominates is NW's shape: protecting K2 alone meets the
// budget, but protecting both kernels costs less and meets it too, so the
// search returns the full set.
func TestSearchFullSetDominates(t *testing.T) {
	measures := map[string]KernelMeasure{
		"K1": {Kernel: "K1", Weight: 100, HardMult: 1.02, SDC: 0.001, SDCHardened: 0},
		"K2": {Kernel: "K2", Weight: 100, HardMult: 1.2, SDC: 0.01, SDCHardened: 0},
	}
	overheads := map[string]float64{"K1": 1.01, "K2": 1.20, "K1+K2": 1.03}
	budget := 0.002
	if predictedSDC(measures, protecting("K2")) > budget {
		t.Fatal("table: {K2} alone must meet the budget")
	}
	plan, err := Search("app", budget, measures, overheads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Protect, []string{"K1", "K2"}) || plan.Overhead != 1.03 || plan.FullOverhead != 1.03 {
		t.Fatalf("plan = %+v, want the full set at 1.03", plan)
	}
}

// tmrRaises: TMR raises K1's SDC, so protecting every kernel predicts 0.025
// while protecting K2 alone predicts 0.0025.
var tmrRaises = map[string]KernelMeasure{
	"K1": {Kernel: "K1", Weight: 100, HardMult: 3, SDC: 0.01, SDCHardened: 0.05},
	"K2": {Kernel: "K2", Weight: 100, HardMult: 3, SDC: 0.1, SDCHardened: 0},
}

// TestSearchProperSubsetWhenTMRRaisesSDC: the full set misses the budget but
// a proper subset meets it, so there is a plan.
func TestSearchProperSubsetWhenTMRRaisesSDC(t *testing.T) {
	overheads := map[string]float64{"K1": 2, "K2": 2, "K1+K2": 3}
	if full := predictedSDC(tmrRaises, protecting("K1", "K2")); full <= 0.01 {
		t.Fatalf("table: full set predicts %v, must miss the budget", full)
	}
	plan, err := Search("app", 0.01, tmrRaises, overheads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Protect, []string{"K2"}) || plan.PredictedSDC != 0.0025 || plan.FullOverhead != 3 {
		t.Fatalf("plan = %+v, want [K2] predicting 0.0025", plan)
	}
}

func TestSearchEmptySetWhenBudgetAlreadyMet(t *testing.T) {
	b := threeKernelBackend()
	plan, err := Search("app", 1.0, b.measures, b.overheads)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Protect) != 0 || plan.Overhead != 1.0 {
		t.Fatalf("plan = %+v, want empty protection at overhead 1", plan)
	}
}

func TestSearchRefusesUnattainableBudget(t *testing.T) {
	b := threeKernelBackend()
	_, err := Search("app", 1e-6, b.measures, b.overheads)
	var unattainable *ErrBudgetUnattainable
	if !errors.As(err, &unattainable) {
		t.Fatalf("err = %v, want ErrBudgetUnattainable", err)
	}
	if unattainable.BestSDC <= 1e-6 {
		t.Fatalf("BestSDC = %v, want above budget", unattainable.BestSDC)
	}
}

// TestSearchBestSDCOverAllSubsets: an unattainable budget reports the lowest
// prediction of any subset, not the full set's.
func TestSearchBestSDCOverAllSubsets(t *testing.T) {
	_, err := Search("app", 0.001, tmrRaises, map[string]float64{"K1": 2, "K2": 2, "K1+K2": 3})
	var unattainable *ErrBudgetUnattainable
	if !errors.As(err, &unattainable) || unattainable.BestSDC != 0.0025 {
		t.Fatalf("err = %v, want ErrBudgetUnattainable with BestSDC 0.0025 ({K2})", err)
	}
}

// TestSearchDeterministic: the plan is a pure function of its inputs, and
// each tie rule decides when the ones before it are equal.
func TestSearchDeterministic(t *testing.T) {
	b := threeKernelBackend()
	p1, err := Search("app", 0.01, b.measures, b.overheads)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Search("app", 0.01, b.measures, b.overheads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("plans differ:\n%+v\n%+v", p1, p2)
	}

	// A and B are identical kernels; C has their SDC together. At budget
	// 0.07 the subsets that meet it are {C} and {A,B} (both predict 1/15),
	// {A,C} and {B,C} (1/30) and {A,B,C} (0). Every subset costs 9 but the
	// ones a case names.
	twins := map[string]KernelMeasure{
		"A": {Kernel: "A", Weight: 100, HardMult: 1, SDC: 0.1, SDCHardened: 0},
		"B": {Kernel: "B", Weight: 100, HardMult: 1, SDC: 0.1, SDCHardened: 0},
		"C": {Kernel: "C", Weight: 100, HardMult: 1, SDC: 0.2, SDCHardened: 0},
	}
	for _, tc := range []struct {
		name  string
		cheap map[string]float64
		want  []string
	}{
		{"lower overhead", map[string]float64{"C": 1.4, "A+B+C": 1.5}, []string{"C"}},
		{"lower SDC", map[string]float64{"C": 1.5, "A+C": 1.5}, []string{"A", "C"}},
		{"fewer kernels", map[string]float64{"A+B": 1.5, "C": 1.5}, []string{"C"}},
		{"name", map[string]float64{"B+C": 1.5, "A+C": 1.5}, []string{"A", "C"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			overheads := map[string]float64{}
			for _, set := range subsets([]string{"A", "B", "C"})[1:] {
				overheads[subsetName(set)] = 9
			}
			for k, o := range tc.cheap {
				overheads[k] = o
			}
			plan, err := Search("app", 0.07, twins, overheads)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.Protect, tc.want) {
				t.Fatalf("protect = %v, want %v", plan.Protect, tc.want)
			}
		})
	}
}

func TestRunnerPhasesAndJournal(t *testing.T) {
	b := threeKernelBackend()
	var states []State
	r := &Runner{
		Backend: b,
		App:     "app",
		Budget:  0.02,
		OnState: func(s *State) {
			cp := *s
			states = append(states, cp)
		},
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseDone {
		t.Fatalf("phase = %s, want done", st.Phase)
	}
	if st.Plan == nil || st.Verification == nil {
		t.Fatalf("missing plan or verification: %+v", st)
	}
	if !st.Verification.Pass || st.Verification.SDC > 0.02 {
		t.Fatalf("verification = %+v, want pass within budget", st.Verification)
	}
	if !reflect.DeepEqual(st.Overheads, b.overheads) || b.calls["overhead"] != len(b.overheads) {
		t.Fatalf("priced %d subsets into %v, want each of %v once", b.calls["overhead"], st.Overheads, b.overheads)
	}
	if st.Plan.FullOverhead != b.overheads["K1+K2+K3"] {
		t.Fatalf("full overhead = %v, want the K1+K2+K3 price %v", st.Plan.FullOverhead, b.overheads["K1+K2+K3"])
	}
	// One state per measured kernel, one for pricing, one for the plan, one
	// for verification, one for done.
	want := len(b.kernels) + 4
	if len(states) != want {
		t.Fatalf("journaled %d states, want %d", len(states), want)
	}
	// State round-trips through JSON (the journal format).
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, st) {
		t.Fatalf("state JSON round-trip mismatch:\n%+v\n%+v", back, st)
	}
}

func TestRunnerResumeSkipsCompletedUnits(t *testing.T) {
	budget := 0.02
	full := &Runner{Backend: threeKernelBackend(), App: "app", Budget: budget}
	want, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Re-run from every journaled prefix: each resume must reproduce the
	// identical final state without re-running completed units.
	var journal []State
	rec := &Runner{Backend: threeKernelBackend(), App: "app", Budget: budget,
		OnState: func(s *State) {
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			var cp State
			if err := json.Unmarshal(raw, &cp); err != nil {
				t.Fatal(err)
			}
			journal = append(journal, cp)
		}}
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := range journal {
		resumed := journal[i]
		// Snapshot what the resume state already contains before Run mutates
		// the state's maps in place.
		done := sortedKernels(resumed.Measures)
		hadPrices := resumed.Overheads != nil
		hadVerification := resumed.Verification != nil
		b := threeKernelBackend()
		r := &Runner{Backend: b, App: "app", Budget: budget, Resume: &resumed}
		got, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("resume from state %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Fatalf("resume from state %d: plan mismatch:\n%+v\n%+v", i, got.Plan, want.Plan)
		}
		if !reflect.DeepEqual(got.Verification, want.Verification) {
			t.Fatalf("resume from state %d: verification mismatch", i)
		}
		// Units present in the resume state must not have been re-run.
		for _, k := range done {
			if b.calls["measure:"+k] != 0 {
				t.Fatalf("resume from state %d re-measured %s", i, k)
			}
		}
		if hadPrices && b.calls["overhead"] != 0 {
			t.Fatalf("resume from state %d re-priced subsets", i)
		}
		if hadVerification && b.calls["verify"] != 0 {
			t.Fatalf("resume from state %d re-verified", i)
		}
	}
}

func TestRunnerRefusesFailingPlan(t *testing.T) {
	b := threeKernelBackend()
	b.skew = 1.0 // verification always measures way above budget
	r := &Runner{Backend: b, App: "app", Budget: 0.02}
	st, err := r.Run(context.Background())
	var refused *ErrPlanRefused
	if !errors.As(err, &refused) {
		t.Fatalf("err = %v, want ErrPlanRefused", err)
	}
	if st.Verification == nil || st.Verification.Pass {
		t.Fatalf("verification = %+v, want recorded failure", st.Verification)
	}
	if refused.Plan == nil || refused.MeasuredSDC <= 0.02 {
		t.Fatalf("refusal detail = %+v", refused)
	}
}

// TestRunnerResumeRejectsMismatchedState: a resume state for another app or
// budget, or of another schema version, is an error before any unit runs.
func TestRunnerResumeRejectsMismatchedState(t *testing.T) {
	for _, tc := range []struct {
		resume State
		want   string
	}{
		{State{Version: StateVersion, App: "other", Budget: 0.02}, `resume state is for app "other"`},
		{State{Version: StateVersion, App: "app", Budget: 0.5}, "budget 0.5"},
		{State{Version: 1, App: "app", Budget: 0.02, Phase: PhaseVerify, Plan: &Plan{Protect: []string{"K2"}}}, "version 1, want 2"},
	} {
		b := threeKernelBackend()
		r := &Runner{Backend: b, App: "app", Budget: 0.02, Resume: &tc.resume}
		if _, err := r.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "resume state") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("resume %+v: err = %v, want one containing %q", tc.resume, err, tc.want)
		}
		if len(b.calls) != 0 {
			t.Errorf("resume %+v ran %v", tc.resume, b.calls)
		}
	}
}

// TestRunnerRefusesTooManyKernels: the exhaustive search refuses an app
// whose subsets it would not price in reasonable time.
func TestRunnerRefusesTooManyKernels(t *testing.T) {
	b := &fakeBackend{}
	for i := 0; i <= maxKernels; i++ {
		b.kernels = append(b.kernels, fmt.Sprintf("K%d", i))
	}
	r := &Runner{Backend: b, App: "app", Budget: 0.02}
	if _, err := r.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("err = %v, want a refusal", err)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Backend: threeKernelBackend(), App: "app", Budget: 0.02}
	if _, err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSortedKernelsSorted(t *testing.T) {
	m := map[string]KernelMeasure{"z": {}, "a": {}, "m": {}}
	got := sortedKernels(m)
	if !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Fatalf("sortedKernels = %v", got)
	}
}
