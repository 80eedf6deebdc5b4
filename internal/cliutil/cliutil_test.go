package cliutil

import (
	"flag"
	"io"
	"testing"

	"gpurel/internal/microfi"
)

// TestSnapshotFlagsSpec: each spelling of the snapshot flags yields the
// checkpoint spec the help text promises.
func TestSnapshotFlagsSpec(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want microfi.CheckpointSpec
	}{
		{"no flag", nil, microfi.CheckpointSpec{}},
		{"converge alone", []string{"-converge"}, microfi.CheckpointSpec{Stride: microfi.AutoStride, Converge: true}},
		{"budget 64 MiB", []string{"-snap-mb", "64"}, microfi.CheckpointSpec{BudgetBytes: 64 << 20}},
		{"unlimited budget", []string{"-snap-mb", "-1"}, microfi.CheckpointSpec{BudgetBytes: -1 << 20}},
		{"auto stride", []string{"-snap-stride", "-1"}, microfi.CheckpointSpec{Stride: microfi.AutoStride}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sf := Snapshots(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got := sf.Spec()
			if got != tc.want {
				t.Fatalf("Spec() = %+v, want %+v", got, tc.want)
			}
			if got.Enabled() != (tc.want.Stride != 0) {
				t.Errorf("Enabled() = %v for %+v", got.Enabled(), got)
			}
			if tc.want.BudgetBytes < 0 && got.BudgetBytes >= 0 {
				t.Errorf("negative -snap-mb did not ask for an unlimited budget: %+v", got)
			}
		})
	}
}

// TestProfilerNoFlags: with neither -cpuprofile nor -memprofile set, Start
// starts nothing, and the stop it returns is safe to call, twice too.
func TestProfilerNoFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Profiling(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if p.cpuFile != nil {
		t.Error("Start opened a CPU profile with no -cpuprofile")
	}
	stop()
	stop()
}
