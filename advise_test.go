// Tests for the selective-hardening study API and the advisor loop on the
// real measurement stack: boundary identity of selective points with the
// legacy plain/TMR campaigns, end-to-end advise runs on real apps, and the
// CI plan artifact.
package gpurel

import (
	"context"
	"encoding/json"
	"os"
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
var advisorE2ECases = []struct {
	app  string
	runs int
	seed int64
	frac float64
}{
	{app: "SRADv1", runs: 8, seed: 17, frac: 0.5},
	{app: "K-Means", runs: 20, seed: 5, frac: 0.75},
}

// TestAdvisorEndToEnd is the acceptance e2e: on SRADv1 and K-Means the
// advisor emits a proper-subset plan whose verified SDC meets the budget at
// a measured overhead strictly below full TMR.
func TestAdvisorEndToEnd(t *testing.T) {
	for _, tc := range advisorE2ECases {
		s := NewStudy(tc.runs, tc.seed)
		plain, err := s.AppAVF(tc.app, false)
		if err != nil {
			t.Fatal(err)
		}
		hard, err := s.AppAVF(tc.app, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.SDC <= hard.SDC {
			t.Fatalf("%s: plain SDC %.4f not above hardened %.4f — campaign too small to advise",
				tc.app, plain.SDC, hard.SDC)
		}
		budget := hard.SDC + tc.frac*(plain.SDC-hard.SDC)

		st, err := s.Advise(tc.app, budget)
		if err != nil {
			t.Fatalf("%s: advise: %v", tc.app, err)
		}
		if st.Phase != "done" || st.Plan == nil || st.Verification == nil {
			t.Fatalf("%s: incomplete state %+v", tc.app, st)
		}
		v := st.Verification
		if !v.Pass || v.SDC > budget {
			t.Errorf("%s: verified SDC %.4f exceeds budget %.4f", tc.app, v.SDC, budget)
		}
		if v.Overhead >= v.FullOverhead {
			t.Errorf("%s: overhead %.3f not strictly below full TMR %.3f", tc.app, v.Overhead, v.FullOverhead)
		}
		if n := len(st.Plan.Protect); n == 0 || n >= len(st.Measures) {
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
	tc := advisorE2ECases[0]
	budgets := func(s *Study) float64 {
		plain, err := s.AppAVF(tc.app, false)
		if err != nil {
			t.Fatal(err)
		}
		hard, err := s.AppAVF(tc.app, true)
		if err != nil {
			t.Fatal(err)
		}
		return hard.SDC + tc.frac*(plain.SDC-hard.SDC)
	}
	s1 := NewStudy(tc.runs, tc.seed)
	st1, err := s1.Advise(tc.app, budgets(s1))
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStudy(tc.runs, tc.seed)
	st2, err := s2.Advise(tc.app, budgets(s2))
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := json.Marshal(st1)
	p2, _ := json.Marshal(st2)
	if string(p1) != string(p2) {
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
	for _, tc := range advisorE2ECases {
		s := NewStudy(tc.runs, tc.seed)
		plain, err := s.AppAVF(tc.app, false)
		if err != nil {
			t.Fatal(err)
		}
		hard, err := s.AppAVF(tc.app, true)
		if err != nil {
			t.Fatal(err)
		}
		budget := hard.SDC + tc.frac*(plain.SDC-hard.SDC)
		st, err := s.Advise(tc.app, budget)
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		out = append(out, entry{App: tc.app, Budget: budget, State: st})
	}
	raw, err := json.MarshalIndent(map[string]any{"table": "advisor_plans", "plans": out}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("GPUREL_ADVISOR_JSON"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// noPreRank hides the StudyBackend's PreRanker capability: the embedded
// interface value forwards every Backend method but the wrapper type itself
// has no PreRank method, so the runner's capability check fails.
type noPreRank struct{ advisor.Backend }

// TestAdvisorPreRankPlanUnchangedOnStudy pins the tentpole consumer
// contract on the real measurement stack: the static pre-ranking stage
// reorders measurement and journals the bounds, but the plan and
// verification are bit-identical to the seed behaviour (same backend with
// the capability hidden).
func TestAdvisorPreRankPlanUnchangedOnStudy(t *testing.T) {
	tc := advisorE2ECases[0]
	budget := func(s *Study) float64 {
		plain, err := s.AppAVF(tc.app, false)
		if err != nil {
			t.Fatal(err)
		}
		hard, err := s.AppAVF(tc.app, true)
		if err != nil {
			t.Fatal(err)
		}
		return hard.SDC + tc.frac*(plain.SDC-hard.SDC)
	}

	s1 := NewStudy(tc.runs, tc.seed)
	ranked, err := s1.Advise(tc.app, budget(s1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.PreRank) == 0 {
		t.Fatal("study advise recorded no static pre-ranks")
	}
	someExposure := false
	for _, r := range ranked.PreRank {
		if !(0 <= r.Lower && r.Lower <= r.Upper && r.Upper <= 1) {
			t.Fatalf("pre-rank %+v not a sane [0,1] bracket", r)
		}
		if r.Upper > 0 {
			someExposure = true
		}
	}
	if !someExposure {
		t.Fatal("every kernel statically dead — bounds implausible")
	}

	s2 := NewStudy(tc.runs, tc.seed)
	r := &advisor.Runner{Backend: noPreRank{&StudyBackend{Study: s2}}, App: tc.app, Budget: budget(s2)}
	seedSt, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seedSt.PreRank != nil {
		t.Fatal("hidden capability still produced pre-ranks")
	}
	p1, _ := json.Marshal(ranked.Plan)
	p2, _ := json.Marshal(seedSt.Plan)
	if string(p1) != string(p2) {
		t.Errorf("pre-ranking changed the plan:\n%s\n%s", p1, p2)
	}
	v1, _ := json.Marshal(ranked.Verification)
	v2, _ := json.Marshal(seedSt.Verification)
	if string(v1) != string(v2) {
		t.Errorf("pre-ranking changed the verification:\n%s\n%s", v1, v2)
	}
}
