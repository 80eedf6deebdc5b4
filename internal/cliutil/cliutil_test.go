package cliutil

import (
	"flag"
	"testing"
)

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
