package faultmodel

import (
	"fmt"
	"strings"
	"testing"

	"gpurel/internal/gpu"
)

// TestCanonicalDefault: Canonical is "" — nothing appended to a point's
// identity, so historical seeds hold — exactly for the spellings of the
// transient single-bit flip.
func TestCanonicalDefault(t *testing.T) {
	for _, s := range []Spec{
		{},
		{Model: ModelTransient},
		{Width: 1},
		{Model: ModelTransient, Width: 1},
		{Model: ModelTransient, Width: 0, Lines: 1},
	} {
		if c := s.Canonical(); c != "" || !s.IsDefault() {
			t.Errorf("%+v: Canonical %q, IsDefault %v; want the default", s, c, s.IsDefault())
		}
		if s.Label() != ModelTransient {
			t.Errorf("%+v: Label %q", s, s.Label())
		}
	}
	for _, s := range []Spec{
		{Width: 2},
		{Model: ModelTransient, Width: 3},
		{Model: ModelStuck, Stuck: Ptr(0)},
		{Model: ModelMBU},
		{Model: ModelMBU, Width: 1, Lines: 1},
		{Model: ModelControl},
	} {
		if c := s.Canonical(); c == "" || s.IsDefault() || s.Label() != c {
			t.Errorf("%+v: Canonical %q, IsDefault %v, Label %q; want a non-default identity", s, c, s.IsDefault(), s.Label())
		}
	}
}

// TestCanonicalSpellings: two spellings of one fault share an identity.
func TestCanonicalSpellings(t *testing.T) {
	for _, pair := range [][2]Spec{
		{{Model: "", Width: 2}, {Model: ModelTransient, Width: 2}},
		{{Model: ModelMBU, Width: 0, Lines: 2}, {Model: ModelMBU, Width: 1, Lines: 2}},
		{{Model: ModelMBU, Width: 2, Lines: 0}, {Model: ModelMBU, Width: 2, Lines: 1}},
		{{Model: ModelStuck, Stuck: Ptr(1)}, {Model: ModelStuck, Stuck: Ptr(1), Width: 1, Lines: 1}},
		{{Model: ModelControl, Stuck: Ptr(0)}, {Model: ModelControl, Stuck: Ptr(0), Width: 1}},
	} {
		if a, b := pair[0].Canonical(), pair[1].Canonical(); a != b {
			t.Errorf("%+v and %+v: %q != %q", pair[0], pair[1], a, b)
		}
	}
}

// TestCanonicalDistinct: faults that differ in meaning never share an
// identity — over the seven specs of the cross-model table (the root
// package's StorageFaultSpecs and ControlFaultSpecs, written out because
// this package cannot import them) and over a width × lines × stuck grid.
func TestCanonicalDistinct(t *testing.T) {
	specs := []Spec{
		{}, // transient single-bit
		{Model: ModelStuck, Stuck: Ptr(0)},
		{Model: ModelStuck, Stuck: Ptr(1)},
		{Model: ModelMBU, Width: 2, Lines: 2},
		{Model: ModelControl},
		{Model: ModelControl, Stuck: Ptr(0)},
		{Model: ModelControl, Stuck: Ptr(1)},
	}
	for w := 2; w <= 4; w++ {
		specs = append(specs, Spec{Model: ModelTransient, Width: w})
		for l := 1; l <= 3; l++ {
			if w == 2 && l == 2 {
				continue // the table's own MBU cluster, listed above
			}
			specs = append(specs, Spec{Model: ModelMBU, Width: w, Lines: l})
		}
	}
	seen := map[string]Spec{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		c := s.Canonical()
		if prev, dup := seen[c]; dup {
			t.Errorf("%+v and %+v share the identity %q", prev, s, c)
		}
		seen[c] = s
	}
}

// TestValidate: the parameter rules of each family (docs/faults.md, "The
// four families").
func TestValidate(t *testing.T) {
	good := []Spec{
		{},
		{Model: ModelTransient, Width: MaxWidth},
		{Model: ModelStuck, Stuck: Ptr(0)},
		{Model: ModelStuck, Stuck: Ptr(1), Width: 1, Lines: 1},
		{Model: ModelMBU},
		{Model: ModelMBU, Width: MaxWidth, Lines: MaxLines},
		{Model: ModelControl},
		{Model: ModelControl, Stuck: Ptr(1)},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	bad := []struct {
		spec Spec
		msg  string
	}{
		{Spec{Model: "cosmic"}, "unknown fault model"},
		{Spec{Stuck: Ptr(1)}, "does not take stuck"},
		{Spec{Model: ModelTransient, Lines: 2}, "does not take lines"},
		{Spec{Model: ModelStuck}, "requires stuck"},
		{Spec{Model: ModelStuck, Stuck: Ptr(2)}, "stuck must be 0 or 1"},
		{Spec{Model: ModelStuck, Stuck: Ptr(0), Width: 2}, "single cell"},
		{Spec{Model: ModelMBU, Stuck: Ptr(0)}, "does not take stuck"},
		{Spec{Model: ModelMBU, Width: MaxWidth + 1}, "width must be"},
		{Spec{Model: ModelMBU, Lines: MaxLines + 1}, "lines must be"},
		{Spec{Model: ModelMBU, Width: -1}, "width must be"},
		{Spec{Model: ModelTransient, Lines: -1}, "lines must be"},
		{Spec{Model: ModelControl, Width: 2}, "single latches"},
		{Spec{Model: ModelControl, Stuck: Ptr(-1)}, "stuck must be 0 or 1"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%+v: error %v, want one containing %q", tc.spec, err, tc.msg)
		}
		if _, berr := tc.spec.Build(); berr == nil {
			t.Errorf("%+v: Build accepted what Validate rejects", tc.spec)
		}
	}
}

// TestValidateFor: storage arrays take every model but control, control
// sites take only control, and an invalid spec is invalid everywhere.
func TestValidateFor(t *testing.T) {
	storage := []Spec{{}, {Model: ModelStuck, Stuck: Ptr(0)}, {Model: ModelMBU, Width: 2, Lines: 2}}
	control := []Spec{{Model: ModelControl}, {Model: ModelControl, Stuck: Ptr(1)}}
	for _, st := range gpu.Structures {
		for _, s := range storage {
			if err := s.ValidateFor(st); err != nil {
				t.Errorf("%v %+v rejected: %v", st, s, err)
			}
		}
		for _, s := range control {
			if err := s.ValidateFor(st); err == nil || !strings.Contains(err.Error(), "requires a control structure") {
				t.Errorf("%v %+v: error %v", st, s, err)
			}
		}
	}
	for _, st := range gpu.ControlStructures {
		for _, s := range control {
			if err := s.ValidateFor(st); err != nil {
				t.Errorf("%v %+v rejected: %v", st, s, err)
			}
		}
		for _, s := range storage {
			want := fmt.Sprintf("structure %v requires fault model control", st)
			if err := s.ValidateFor(st); err == nil || err.Error() != want {
				t.Errorf("%v %+v: error %v, want %q", st, s, err, want)
			}
		}
		if err := (Spec{Model: ModelStuck}).ValidateFor(st); err == nil || !strings.Contains(err.Error(), "requires stuck") {
			t.Errorf("%v: an invalid spec must fail on its own rule first, got %v", st, err)
		}
	}
}

// TestBuild: a spec builds the model it describes — name, persistence and
// ECC footprint as the families table of docs/faults.md lists them.
func TestBuild(t *testing.T) {
	cases := []struct {
		spec       Spec
		name       string
		persistent bool
		wordBits   int
	}{
		{Spec{}, "transient", false, 1},
		{Spec{Model: ModelTransient, Width: 3}, "transient", false, 3},
		{Spec{Model: ModelStuck, Stuck: Ptr(0)}, "stuck0", true, 1},
		{Spec{Model: ModelStuck, Stuck: Ptr(1)}, "stuck1", true, 1},
		{Spec{Model: ModelMBU}, "transient", false, 1}, // one row: the burst
		{Spec{Model: ModelMBU, Width: 2, Lines: 2}, "mbu", false, 2},
		{Spec{Model: ModelControl}, "control", false, 0},
		{Spec{Model: ModelControl, Stuck: Ptr(0)}, "control-stuck", true, 0},
	}
	for _, tc := range cases {
		m, err := tc.spec.Build()
		if err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
			continue
		}
		if m.Name() != tc.name || m.Persistent() != tc.persistent || m.WordBits() != tc.wordBits {
			t.Errorf("%+v built %s persistent=%v wordBits=%d, want %s %v %d",
				tc.spec, m.Name(), m.Persistent(), m.WordBits(), tc.name, tc.persistent, tc.wordBits)
		}
	}
	if m, _ := (Spec{Model: ModelMBU, Width: 2, Lines: 3}).Build(); m != (SpatialMBU{Width: 2, Lines: 3}) {
		t.Errorf("mbu parameters lost: %+v", m)
	}
	if m, _ := (Spec{Model: ModelMBU, Width: 3, Lines: 1}).Build(); m != (Transient{Width: 3}) {
		t.Errorf("a one-row mbu built %+v, want the transient burst of its width", m)
	}
}
