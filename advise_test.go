// Tests for the selective-hardening study API and the advisor loop on the
// real measurement stack: boundary identity of selective points with the
// legacy plain/TMR campaigns, end-to-end advise runs on real apps, and the
// CI plan artifact.
package gpurel

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"gpurel/internal/advisor"
	"gpurel/internal/faultmodel"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
)

// TestSelectiveBoundaryIdentity is the satellite property test: selective
// campaigns with the full kernel set are bit-identical to the hardened
// (TMR) campaigns, and with the empty set bit-identical to the unhardened
// campaigns, across ≥3 apps and both storage and control fault models.
// Fresh studies on each side make this an identity of the whole pipeline
// (job transform, golden run, seeds, injection), not a memo artifact.
func TestSelectiveBoundaryIdentity(t *testing.T) {
	runs := envInt("GPUREL_SELECTIVE_RUNS", 10)
	apps := []string{"VA", "SCP", "NW"}
	cases := []struct {
		st    gpu.Structure
		fault faultmodel.Spec
	}{
		{gpu.RF, faultmodel.Spec{}}, // transient single-bit baseline
		{gpu.RF, faultmodel.Spec{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(1)}},
		{gpu.RF, faultmodel.Spec{Model: faultmodel.ModelMBU, Width: 2, Lines: 2}},
		{gpu.ControlStructures[0], faultmodel.Spec{Model: faultmodel.ModelControl}},
		{gpu.ControlStructures[0], faultmodel.Spec{Model: faultmodel.ModelControl, Stuck: faultmodel.Ptr(0)}},
	}

	for _, app := range apps {
		sel := NewStudy(runs, 11)
		ref := NewStudy(runs, 11)
		e, err := sel.Eval(app)
		if err != nil {
			t.Fatal(err)
		}
		all := e.App.Kernels
		for _, k := range all {
			for _, c := range cases {
				// The empty protection set is spelled nil, as the advisor
				// spells it: the same spec as the plain point.
				plain := PointSpec{Layer: LayerMicro, App: app, Kernel: k, Structure: c.st, Fault: &c.fault}
				tmr, fullSet := plain, plain
				tmr.Hardened = true
				fullSet.Harden = all

				full, err := sel.Tally(fullSet)
				if err != nil {
					t.Fatalf("%s/%s full-set: %v", app, k, err)
				}
				wantFull, err := ref.Tally(tmr)
				if err != nil {
					t.Fatal(err)
				}
				if full != wantFull {
					t.Errorf("%s/%s %v %s: full-set selective %+v != TMR %+v",
						app, k, c.st, c.fault.Label(), full, wantFull)
				}

				empty, err := sel.Tally(plain)
				if err != nil {
					t.Fatalf("%s/%s empty-set: %v", app, k, err)
				}
				wantEmpty, err := ref.Tally(plain)
				if err != nil {
					t.Fatal(err)
				}
				if empty != wantEmpty {
					t.Errorf("%s/%s %v %s: empty-set selective %+v != plain %+v",
						app, k, c.st, c.fault.Label(), empty, wantEmpty)
				}
			}
		}
	}
}

// TestSelectiveProperSubsetDistinct: a proper-subset campaign is a real
// third variant — its own seed, its own golden run, an overhead strictly
// between the plain job's and full TMR's.
func TestSelectiveProperSubsetDistinct(t *testing.T) {
	s := NewStudy(10, 3)
	e, err := s.Eval("SRADv1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.App.Kernels) < 2 {
		t.Fatalf("SRADv1 has %d kernels, need ≥2", len(e.App.Kernels))
	}
	sub := e.App.Kernels[:1]

	o, err := s.SelectiveOverhead("SRADv1", sub)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.SelectiveOverhead("SRADv1", e.App.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !(1 < o && o < full) {
		t.Errorf("subset overhead %.3f not strictly between 1 and full %.3f", o, full)
	}

	// Seeds: plain, subset, full-set (≡ hardened) are three distinct points;
	// spellings and orderings of the same subset collide.
	base := PointSpec{Layer: LayerMicro, App: "SRADv1", Kernel: sub[0], Structure: gpu.RF}
	withSet := func(set []string) PointSpec {
		p := base
		p.Harden = set
		return p
	}
	plain, subset := PointSeed(1, base), PointSeed(1, withSet(sub))
	hardenedSpec := base
	hardenedSpec.Hardened = true
	hard := PointSeed(1, hardenedSpec)
	if plain == subset || subset == hard || plain == hard {
		t.Errorf("seeds not distinct: plain %d subset %d hardened %d", plain, subset, hard)
	}
	if PointSeed(1, withSet([]string{sub[0], sub[0]})) != subset {
		t.Error("duplicate-kernel spelling changed the subset seed")
	}

	// The set helper agrees with the study's normalization.
	if !harden.NewSet(e.App.Kernels...).Covers(e.Job) {
		t.Error("full kernel set does not cover the job")
	}
}

// advisorE2ECases are the acceptance end-to-end configurations: fixed
// runs/seed (the advisor is deterministic, so these pin the whole run) and
// a budget fraction between the full-TMR and unhardened SDC positions.
var advisorE2ECases = []advisorCase{
	{app: "SRADv1", runs: 8, seed: 17, frac: 0.5},
	{app: "K-Means", runs: 20, seed: 5, frac: 0.75},
}

type advisorCase struct {
	app  string
	runs int
	seed int64
	frac float64
}

// advised is one advise run of a case: its budget and final state.
type advised struct {
	budget float64
	st     *advisor.State
}

// adviseFresh runs the advisor for a case on a fresh study, at a budget
// tc.frac of the way from the app's full-TMR SDC to its unhardened SDC.
func adviseFresh(tc advisorCase) (advised, error) {
	s := NewStudy(tc.runs, tc.seed)
	plain, err := s.AppAVF(tc.app, false)
	if err != nil {
		return advised{}, err
	}
	hard, err := s.AppAVF(tc.app, true)
	if err != nil {
		return advised{}, err
	}
	if plain.SDC <= hard.SDC {
		return advised{}, fmt.Errorf("%s: plain SDC %.4f not above hardened %.4f — campaign too small to advise",
			tc.app, plain.SDC, hard.SDC)
	}
	budget := hard.SDC + tc.frac*(plain.SDC-hard.SDC)
	st, err := s.Advise(tc.app, budget)
	return advised{budget, st}, err
}

// advisedCases memoises adviseFresh per case: every test that reads a case
// shares its one study.
var advisedCases = func() []func() (advised, error) {
	out := make([]func() (advised, error), len(advisorE2ECases))
	for i, tc := range advisorE2ECases {
		out[i] = sync.OnceValues(func() (advised, error) { return adviseFresh(tc) })
	}
	return out
}()

// TestAdvisorEndToEnd is the acceptance e2e: on SRADv1 and K-Means the
// advisor emits a proper-subset plan whose verified SDC meets the budget at
// a measured overhead strictly below full TMR.
func TestAdvisorEndToEnd(t *testing.T) {
	for i, tc := range advisorE2ECases {
		a, err := advisedCases[i]()
		if err != nil {
			t.Fatalf("%s: advise: %v", tc.app, err)
		}
		st, budget := a.st, a.budget
		if st.Phase != "done" || st.Plan == nil || st.Verification == nil {
			t.Fatalf("%s: incomplete state %+v", tc.app, st)
		}
		v, p := st.Verification, st.Plan
		if !v.Pass || v.SDC > budget {
			t.Errorf("%s: verified SDC %.4f exceeds budget %.4f", tc.app, v.SDC, budget)
		}
		if p.Overhead >= p.FullOverhead {
			t.Errorf("%s: overhead %.3f not strictly below full TMR %.3f", tc.app, p.Overhead, p.FullOverhead)
		}
		if n := len(p.Protect); n == 0 || n >= len(st.Measures) {
			t.Errorf("%s: plan protects %d of %d kernels — not a proper subset", tc.app, n, len(st.Measures))
		}
		if v.TotalRuns == 0 {
			t.Errorf("%s: verification spent no runs", tc.app)
		}
	}
}

// TestAdvisorDeterminism: a fresh study reproduces the identical plan and
// verification (the property the journal/resume path relies on).
func TestAdvisorDeterminism(t *testing.T) {
	a1, err := advisedCases[0]()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := adviseFresh(advisorE2ECases[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := json.Marshal(a1.st)
	p2, _ := json.Marshal(a2.st)
	if a1.budget != a2.budget || string(p1) != string(p2) {
		t.Errorf("advise not reproducible:\n%s\n%s", p1, p2)
	}
}

// TestAdvisorPlansArtifact generates the advisor-plan artifact for CI: one
// plan + verification per app, written as JSON when GPUREL_ADVISOR_JSON
// names a path.
func TestAdvisorPlansArtifact(t *testing.T) {
	if os.Getenv("GPUREL_ADVISOR_JSON") == "" {
		t.Skip("set GPUREL_ADVISOR_JSON to emit the advisor plan artifact")
	}
	type entry struct {
		App    string  `json:"app"`
		Budget float64 `json:"budget"`
		State  any     `json:"state"`
	}
	var out []entry
	for i, tc := range advisorE2ECases {
		a, err := advisedCases[i]()
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		out = append(out, entry{App: tc.app, Budget: a.budget, State: a.st})
	}
	raw, err := json.MarshalIndent(map[string]any{"table": "advisor_plans", "plans": out}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("GPUREL_ADVISOR_JSON"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
