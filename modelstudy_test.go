// Tests for the cross-model outcome study: fault specs participate in point
// identity exactly when non-default, the model-aware memo shares entries
// with the legacy path, and the cross-model table is deterministic and
// exportable as the CI artifact (GPUREL_FAULTMODEL_JSON).
package gpurel

import (
	"encoding/json"
	"os"
	"testing"

	"gpurel/internal/faultmodel"
	"gpurel/internal/gpu"
)

// TestPointSeedFaultIdentity: the legacy seed derivation is untouched for
// default fault specs (nil group, or any spelling of the transient
// single-bit flip), every distinct model reseeds, and two spellings of the
// same fault collide — the property that keeps daemon/CLI campaigns
// comparable and pre-fault studies bit-identical.
func TestPointSeedFaultIdentity(t *testing.T) {
	base := PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF}
	legacy := PointSeed(1, base)

	defaults := []*faultmodel.Spec{
		nil,
		{},
		{Model: faultmodel.ModelTransient},
		{Model: faultmodel.ModelTransient, Width: 1},
	}
	for _, f := range defaults {
		p := base
		p.Fault = f
		if got := PointSeed(1, p); got != legacy {
			t.Errorf("default fault spec %+v changed the seed: %d != %d", f, got, legacy)
		}
	}

	variants := []faultmodel.Spec{
		{Model: faultmodel.ModelTransient, Width: 2},
		{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(0)},
		{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(1)},
		{Model: faultmodel.ModelMBU, Width: 2, Lines: 2},
	}
	seen := map[int64]string{legacy: "default"}
	for _, f := range variants {
		f := f
		p := base
		p.Fault = &f
		got := PointSeed(1, p)
		if prev, dup := seen[got]; dup {
			t.Errorf("fault %s collides with %s on seed %d", f.Canonical(), prev, got)
		}
		seen[got] = f.Canonical()
	}

	// Two spellings of one fault (explicit vs normalized width) must agree.
	a, b := base, base
	a.Fault = &faultmodel.Spec{Model: faultmodel.ModelMBU, Width: 2, Lines: 2}
	b.Fault = &faultmodel.Spec{Model: faultmodel.ModelMBU, Width: 2, Lines: 2}
	if PointSeed(1, a) != PointSeed(1, b) {
		t.Error("identical fault specs derived different seeds")
	}
}

// TestMicroTallyModelDefaultParity: a point spelled with an explicit
// default fault spec is the legacy MicroTally — same seed, same memo slot,
// same tally.
func TestMicroTallyModelDefaultParity(t *testing.T) {
	s := NewStudy(20, 1)
	want, _, err := s.MicroTally("VA", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Tally(PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF, Fault: &faultmodel.Spec{}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Tally(default fault) %+v != MicroTally %+v", got, want)
	}
}

// TestFaultModelTableArtifact generates the cross-model outcome table on a
// small campaign, pins its deterministic shape (structures × models in
// canonical order, every cell populated), and — when GPUREL_FAULTMODEL_JSON
// names a path — writes the machine-readable table for the CI artifact.
func TestFaultModelTableArtifact(t *testing.T) {
	runs := envInt("GPUREL_FAULTMODEL_RUNS", 15)
	s := NewStudy(runs, 1)
	apps := []string{"VA"}
	if v := os.Getenv("GPUREL_FAULTMODEL_APPS"); v == "all" {
		apps = nil
	}
	rows, txt, err := s.FaultModelFigure(apps)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(gpu.Structures)*len(StorageFaultSpecs()) + len(gpu.ControlStructures)*len(ControlFaultSpecs())
	if len(rows) != wantRows {
		t.Fatalf("table has %d rows, want %d", len(rows), wantRows)
	}
	i := 0
	check := func(st gpu.Structure, f faultmodel.Spec) {
		r := rows[i]
		i++
		if r.Structure != st.String() || r.Model != f.Label() {
			t.Errorf("row %d is (%s, %s), want (%v, %s)", i-1, r.Structure, r.Model, st, f.Label())
		}
		if r.Tally.N == 0 {
			t.Errorf("row (%s, %s) tallied no runs", r.Structure, r.Model)
		}
		if r.Hardened.N == 0 {
			t.Errorf("row (%s, %s) tallied no hardened runs", r.Structure, r.Model)
		}
		if fr := r.FR(); fr < 0 || fr > 1 {
			t.Errorf("row (%s, %s) failure rate %v out of range", r.Structure, r.Model, fr)
		}
		if fr := r.FRHardened(); fr < 0 || fr > 1 {
			t.Errorf("row (%s, %s) hardened failure rate %v out of range", r.Structure, r.Model, fr)
		}
	}
	for _, st := range gpu.Structures {
		for _, f := range StorageFaultSpecs() {
			check(st, f)
		}
	}
	for _, st := range gpu.ControlStructures {
		for _, f := range ControlFaultSpecs() {
			check(st, f)
		}
	}
	if txt == "" {
		t.Error("empty rendered table")
	}

	// Determinism: a fresh study reproduces the table bit for bit.
	s2 := NewStudy(runs, 1)
	rows2, err := s2.FaultModelTable(apps)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rows {
		if rows[j] != rows2[j] {
			t.Errorf("row %d not reproducible: %+v != %+v", j, rows[j], rows2[j])
		}
	}

	if path := os.Getenv("GPUREL_FAULTMODEL_JSON"); path != "" {
		out, err := json.MarshalIndent(map[string]any{
			"table": "faultmodels",
			"runs":  runs,
			"apps":  apps,
			"rows":  rows,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
