package kernels

import (
	"bytes"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/funcsim"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/sim"
)

// runBoth executes an app on both simulators, plain and TMR-hardened, and
// cross-checks them: equal outputs, and per kernel equal thread-instruction
// counts — two engines with nothing in common between register file and
// memory must still have executed the same dynamic instructions. It returns
// the plain run's results.
func runBoth(t *testing.T, app App) ([]byte, *sim.Result) {
	t.Helper()
	out, sr := runBothOn(t, app, app.Build())
	runBothOn(t, app, harden.TMR(app.Build()))
	return out, sr
}

func runBothOn(t *testing.T, app App, job *device.Job) ([]byte, *sim.Result) {
	t.Helper()
	fr := funcsim.Run(job, funcsim.Options{CollectWindows: true})
	if fr.Err != nil {
		t.Fatalf("%s funcsim error: %v", job.Name, fr.Err)
	}
	if fr.TimedOut {
		t.Fatalf("%s funcsim timed out", job.Name)
	}
	if err := app.Check(fr.Output); err != nil {
		t.Fatalf("%s funcsim output check: %v", job.Name, err)
	}

	sr := sim.Run(job, gpu.Volta(), sim.Options{})
	if sr.Err != nil {
		t.Fatalf("%s sim error: %v", job.Name, sr.Err)
	}
	if sr.TimedOut {
		t.Fatalf("%s sim timed out", job.Name)
	}
	if err := app.Check(sr.Output); err != nil {
		t.Fatalf("%s sim output check: %v", job.Name, err)
	}
	if !bytes.Equal(fr.Output, sr.Output) {
		t.Errorf("%s: functional and microarchitectural outputs differ", job.Name)
	}
	if fr.DUEFlag || sr.DUEFlag {
		t.Errorf("%s: fault-free run raised the DUE flag (funcsim %v, sim %v)", job.Name, fr.DUEFlag, sr.DUEFlag)
	}

	// every declared kernel must actually have run, the same on both
	for _, k := range app.Kernels {
		if fr.PerKernel[k] == nil || fr.PerKernel[k].DynInstrs == 0 {
			t.Errorf("%s: kernel %s executed no instructions (funcsim)", job.Name, k)
		}
		if sr.PerKernel[k] == nil || sr.PerKernel[k].DynInstrs == 0 {
			t.Errorf("%s: kernel %s executed no instructions (sim)", job.Name, k)
		}
	}
	if len(fr.PerKernel) != len(sr.PerKernel) {
		t.Errorf("%s: funcsim ran %d kernels, sim %d", job.Name, len(fr.PerKernel), len(sr.PerKernel))
	}
	for k, fk := range fr.PerKernel {
		if sk := sr.PerKernel[k]; sk == nil || sk.DynInstrs != fk.DynInstrs {
			t.Errorf("%s: kernel %s executed %d thread-instructions on funcsim, %+v on sim", job.Name, k, fk.DynInstrs, sk)
		}
	}
	return fr.Output, sr
}

func TestVA(t *testing.T)  { runBoth(t, VA()) }
func TestSCP(t *testing.T) { runBoth(t, SCP()) }

// TestDeterminism verifies that repeated runs produce identical outputs and
// cycle counts — the foundation of golden-run fault classification.
func TestDeterminism(t *testing.T) {
	app := SCP()
	job := app.Build()
	r1 := sim.Run(job, gpu.Volta(), sim.Options{})
	r2 := sim.Run(job, gpu.Volta(), sim.Options{})
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if !bytes.Equal(r1.Output, r2.Output) {
		t.Errorf("outputs differ between identical runs")
	}
}

func TestSRADv1(t *testing.T) { runBoth(t, SRADv1()) }

func TestSRADv2(t *testing.T)     { runBoth(t, SRADv2()) }
func TestKMeans(t *testing.T)     { runBoth(t, KMeans()) }
func TestHotSpot(t *testing.T)    { runBoth(t, HotSpot()) }
func TestLUD(t *testing.T)        { runBoth(t, LUD()) }
func TestNW(t *testing.T)         { runBoth(t, NW()) }
func TestPathFinder(t *testing.T) { runBoth(t, PathFinder()) }
func TestBackProp(t *testing.T)   { runBoth(t, BackProp()) }
func TestBFS(t *testing.T)        { runBoth(t, BFS()) }
