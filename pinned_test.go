package gpurel

import (
	"testing"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/gpu"
	"gpurel/internal/softfi"
)

// TestStudyPointsPinned is the oracle under the one-entry study API: seeds,
// tallies and derating factors of points covering every entry point the
// study used to have, as the parent commit (430927f) returned them through
// those entries — MicroTally, MicroTallyModel, MicroTallyModelHardened,
// MicroTallySelective, MicroTallySelectiveModel, SoftTally and a
// KernelAVFStratified prefix recalled by MicroTally. The literals were
// printed by a throw-away test in a clone of that commit, before Tally
// existed; a change that moves one of them changed what a point measures.
func TestStudyPointsPinned(t *testing.T) {
	stuck0 := &faultmodel.Spec{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(0)}
	stuck1 := &faultmodel.Spec{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(1)}
	mbu := &faultmodel.Spec{Model: faultmodel.ModelMBU, Width: 2, Lines: 2}
	ctl := &faultmodel.Spec{Model: faultmodel.ModelControl}
	ctl1 := &faultmodel.Spec{Model: faultmodel.ModelControl, Stuck: faultmodel.Ptr(1)}

	micro := func(app, k string, st gpu.Structure) PointSpec {
		return PointSpec{Layer: LayerMicro, App: app, Kernel: k, Structure: st}
	}
	tmr := func(p PointSpec) PointSpec { p.Hardened = true; return p }
	fault := func(p PointSpec, f *faultmodel.Spec) PointSpec { p.Fault = f; return p }
	protect := func(p PointSpec, ks ...string) PointSpec { p.Harden = ks; return p }
	soft := func(app, k string, m softfi.Mode) PointSpec {
		return PointSpec{Layer: LayerSoft, App: app, Kernel: k, Mode: m}
	}
	tally := func(n, masked, sdc, timeout, due, ctrl int) campaign.Tally {
		return campaign.Tally{N: n, Counts: [4]int{masked, sdc, timeout, due}, CtrlAffected: ctrl}
	}

	const noDF = -1 // the parent's entry point for this spelling returned no derating factor
	points := []struct {
		name  string
		spec  PointSpec
		seed  int64 // PointSeed(7, spec), the spec as spelled here
		tally campaign.Tally
		df    float64
	}{
		{"plain VA/K1/RF", micro("VA", "K1", gpu.RF), 439296254, tally(40, 31, 4, 0, 5, 0), 0.21875},
		{"tmr VA/K1/RF", tmr(micro("VA", "K1", gpu.RF)), 1462499563, tally(40, 38, 0, 0, 2, 0), 0.6086933996477049},
		{"plain VA/K1/L2", micro("VA", "K1", gpu.L2), 2185951194, tally(40, 39, 1, 0, 0, 0), 1},
		{"tmr NW/K1/L1D", tmr(micro("NW", "K1", gpu.L1D)), 1387072791, tally(40, 40, 0, 0, 0, 0), 1},
		{"tmr NW/K1/SMEM", tmr(micro("NW", "K1", gpu.SMEM)), 3352491670, tally(40, 40, 0, 0, 0, 0), 0.14568332230748768},
		{"plain NW/K2/SMEM", micro("NW", "K2", gpu.SMEM), 3993597986, tally(40, 32, 8, 0, 0, 0), 0.03326416015625},
		{"plain NW/K1/RF", micro("NW", "K1", gpu.RF), 605367296, tally(40, 36, 3, 0, 1, 0), 0.025712335108666495},
		{"tmr NW/K2/RF", tmr(micro("NW", "K2", gpu.RF)), 2604375776, tally(40, 35, 0, 0, 5, 0), 0.061985477562397376},

		{"stuck0 VA/K1/RF", fault(micro("VA", "K1", gpu.RF), stuck0), 1608888001, tally(40, 36, 4, 0, 0, 0), noDF},
		{"stuck1 tmr VA/K1/RF", fault(tmr(micro("VA", "K1", gpu.RF)), stuck1), 3760172111, tally(40, 31, 3, 0, 6, 0), noDF},
		{"mbu NW/K1/SMEM", fault(micro("NW", "K1", gpu.SMEM), mbu), 682902055, tally(40, 25, 15, 0, 0, 0), noDF},
		{"mbu tmr NW/K1/SMEM", fault(tmr(micro("NW", "K1", gpu.SMEM)), mbu), 1441091532, tally(40, 40, 0, 0, 0, 0), noDF},
		{"control VA/K1/SCHED", fault(micro("VA", "K1", gpu.Sched), ctl), 1679357555, tally(40, 39, 1, 0, 0, 19), noDF},
		{"control:stuck1 tmr VA/K1/STACK", fault(tmr(micro("VA", "K1", gpu.Stack)), ctl1), 485224482, tally(40, 29, 0, 0, 11, 0), noDF},

		// Proper subsets: their own seeds, golden run and derating factors;
		// the vote counts toward K2 (protected) and not toward K1.
		{"sel{K2} NW/K1/RF", protect(micro("NW", "K1", gpu.RF), "K2"), 1772469676, tally(40, 40, 0, 0, 0, 0), 0.025712335108666495},
		{"sel{K2} NW/K2/RF", protect(micro("NW", "K2", gpu.RF), "K2"), 876448927, tally(40, 39, 0, 0, 1, 0), 0.06951621102515178},
		{"sel{K2} stuck1 NW/K2/RF", fault(protect(micro("NW", "K2", gpu.RF), "K2"), stuck1), 2607856363, tally(40, 23, 4, 0, 13, 0), 0.06951621102515178},
		{"sel{K2} NW/K1/SMEM", protect(micro("NW", "K1", gpu.SMEM), "K2"), 2024176957, tally(40, 34, 6, 0, 0, 0), 0.04969227884476326},
		{"sel{K1} NW/K1/SMEM", protect(micro("NW", "K1", gpu.SMEM), "K1"), 2007399338, tally(40, 40, 0, 0, 0, 0), 0.1487867444292665},
		// Boundary sets: PointSeed of the spelling differs for the covering
		// set, but the study canonicalises before seeding, so tally and DF
		// are the plain / TMR rows above.
		{"sel{} NW/K1/RF", protect(micro("NW", "K1", gpu.RF)), 605367296, tally(40, 36, 3, 0, 1, 0), 0.025712335108666495},
		{"sel{K2,K1} NW/K2/RF", protect(micro("NW", "K2", gpu.RF), "K2", "K1"), 3018215262, tally(40, 35, 0, 0, 5, 0), 0.061985477562397376},
		{"sel{K1,K2} mbu NW/K1/SMEM", fault(protect(micro("NW", "K1", gpu.SMEM), "K1", "K2"), mbu), 1805446954, tally(40, 40, 0, 0, 0, 0), 0.14568332230748768},

		{"soft SVF VA/K1", soft("VA", "K1", softfi.SVF), 3253091392, tally(40, 1, 27, 0, 12, 0), noDF},
		{"soft SVF-LD NW/K1", soft("NW", "K1", softfi.SVFLD), 721608999, tally(40, 19, 21, 0, 0, 0), noDF},
		{"soft SVF-USE tmr VA/K1", tmr(soft("VA", "K1", softfi.SVFUse)), 3897237847, tally(40, 23, 2, 0, 15, 1), noDF},
		{"soft SVF tmr NW/K2", tmr(soft("NW", "K2", softfi.SVF)), 3894153026, tally(40, 20, 1, 0, 19, 0), noDF},
	}

	s := NewStudy(40, 7)
	for _, p := range points {
		if got := PointSeed(7, p.spec); got != p.seed {
			t.Errorf("%s: PointSeed = %d, parent %d", p.name, got, p.seed)
		}
		got, err := s.Tally(p.spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.tally {
			t.Errorf("%s: tally %+v, parent %+v", p.name, got, p.tally)
		}
		if p.df == noDF {
			continue
		}
		if _, df, err := s.derated(p.spec); err != nil || df != p.df {
			t.Errorf("%s: DF = %v (%v), parent %v", p.name, df, err, p.df)
		}
	}

	// A stratified kernel campaign stores per-structure prefixes under the
	// points' own memo keys: MicroTally recalls them, reduced N included.
	st := NewStudy(60, 9)
	pol := adaptive.StratifiedPolicy{Policy: adaptive.Policy{Margin: 0.12, Batch: 10, MinRuns: 10}, Pilot: 10, Budget: 150}
	avf, _, _, err := st.KernelAVFStratified("VA", "K1", false, pol)
	if err != nil {
		t.Fatal(err)
	}
	if avf.SDC != 0.018085106382978722 || avf.Timeout != 0 || avf.DUE != 0.014893617021276596 {
		t.Errorf("stratified chip AVF %+v moved", avf)
	}
	strata := []struct {
		tally campaign.Tally
		df    float64
	}{
		{tally(60, 49, 5, 0, 6, 0), 0.21875}, // RF
		{tally(24, 24, 0, 0, 0, 0), 0},       // SMEM: VA allocates none
		{tally(16, 16, 0, 0, 0, 0), 1},       // L1D
		{tally(13, 13, 0, 0, 0, 0), 1},       // L1T
		{tally(30, 29, 1, 0, 0, 0), 1},       // L2
	}
	for i, sx := range gpu.Structures {
		tl, df, err := st.MicroTally("VA", "K1", sx, false)
		if err != nil {
			t.Fatal(err)
		}
		if tl != strata[i].tally || df != strata[i].df {
			t.Errorf("stratified %v recall: %+v df %v, parent %+v df %v", sx, tl, df, strata[i].tally, strata[i].df)
		}
	}
}
