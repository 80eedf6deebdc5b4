package microfi

import (
	"fmt"
	"math/rand"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/sim"
)

// saxpyJob builds a small float workload with shared memory so every
// structure is exercised.
func saxpyJob(n int) *device.Job {
	b := kasm.New("saxpy")
	tid := b.S2R(isa.SRTidX)
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), tid)
	p := b.P()
	b.ISetpI(p, isa.CmpLT, i, int32(n))
	b.If(p, false, func() {
		x := b.Ldg(b.IScAdd(i, b.Param(0), 2), 0)
		b.Sts(b.Shl(tid, 2), 0, x)
		b.Barrier()
		y := b.Lds(b.Shl(tid, 2), 0)
		b.Stg(b.IScAdd(i, b.Param(1), 2), 0, b.FFma(b.MovF(2), x, y))
	})
	b.FreeP(p)
	prog := b.MustBuild()

	m := device.NewMemory(1 << 18)
	in := m.Alloc("in", 4*n)
	out := m.Alloc("out", 4*n)
	vals := make([]float32, n)
	for k := range vals {
		vals[k] = float32(k) * 0.5
	}
	m.WriteF32s(in, vals)
	return &device.Job{
		Name: "saxpy", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: 4, GridY: 1, BlockX: 64, BlockY: 1,
			SmemBytes: 4 * 64,
			Params:    []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: uint32(4 * n)}},
	}
}

func TestGolden(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	if g.Res.Cycles == 0 || len(g.Res.Spans) != 1 {
		t.Fatalf("golden run incomplete: %+v", g.Res)
	}
}

func TestTargetWindowsAndDF(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range gpu.Structures {
		tgt := Target{Structure: st, Kernel: "K1"}
		if tgt.Windows(g) <= 0 {
			t.Errorf("%s: empty windows", st)
		}
		df := tgt.DF(g)
		if df < 0 || df > 1 {
			t.Errorf("%s: DF = %v out of range", st, df)
		}
		switch st {
		case gpu.RF, gpu.SMEM:
			if df == 0 || df == 1 {
				t.Errorf("%s: DF = %v, expected a proper fraction", st, df)
			}
		default:
			if df != 1 {
				t.Errorf("%s: caches must have DF=1, got %v", st, df)
			}
		}
	}
	// unknown kernel → no windows
	none := Target{Structure: gpu.RF, Kernel: "nope"}
	if none.Windows(g) != 0 {
		t.Error("unknown kernel must have an empty window")
	}
}

func TestInjectAllStructures(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range gpu.Structures {
		tgt := Target{Structure: st, Kernel: "K1"}
		var counts [faults.NumOutcomes]int
		for seed := int64(0); seed < 40; seed++ {
			r := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
			counts[r.Outcome]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 40 {
			t.Errorf("%s: lost runs: %v", st, counts)
		}
		if st == gpu.RF && counts[faults.Masked] == 40 {
			t.Errorf("RF: 40 injections all masked — injection not effective")
		}
	}
}

func TestInjectDeterminism(t *testing.T) {
	job := saxpyJob(256)
	g, _ := Golden(job, gpu.Volta())
	tgt := Target{Structure: gpu.RF, Kernel: "K1"}
	for seed := int64(0); seed < 10; seed++ {
		a := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
		b := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
		if a.Outcome != b.Outcome {
			t.Fatalf("seed %d: %v vs %v", seed, a.Outcome, b.Outcome)
		}
	}
}

func TestClassify(t *testing.T) {
	job := saxpyJob(64)
	g, _ := Golden(job, gpu.Volta())
	cases := []struct {
		res  *sim.Result
		want faults.Outcome
	}{
		{&sim.Result{TimedOut: true}, faults.Timeout},
		{&sim.Result{Err: fmt.Errorf("boom")}, faults.DUE},
		{&sim.Result{DUEFlag: true, Output: g.Res.Output}, faults.DUE},
		{&sim.Result{Output: append([]byte{1}, g.Res.Output[1:]...)}, faults.SDC},
		{&sim.Result{Output: g.Res.Output, Cycles: g.Res.Cycles}, faults.Masked},
	}
	for i, c := range cases {
		got := Classify(g, c.res, true)
		if got.Outcome != c.want {
			t.Errorf("case %d: %v, want %v", i, got.Outcome, c.want)
		}
	}
	// control-path proxy: masked but different cycle count
	r := Classify(g, &sim.Result{Output: g.Res.Output, Cycles: g.Res.Cycles + 5}, true)
	if r.Outcome != faults.Masked || !r.CtrlAffected {
		t.Errorf("cycle deviation must flag CtrlAffected: %+v", r)
	}
}

// TestSDCByteFlipInOutputCache: flip a bit of the L2 line that holds output
// data right before the end of the kernel — the §V-B "written back without
// being read again" scenario must surface as an SDC.
func TestSDCByteFlipInOutputCache(t *testing.T) {
	job := saxpyJob(256)
	cfg := gpu.Volta()
	g, _ := Golden(job, gpu.Volta())
	sdc := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// inject very late, into L2 data
		cycle := g.Res.Cycles - 2
		res := sim.Run(job, cfg, sim.Options{
			MaxCycles: g.Res.Cycles * 10,
			AtCycle:   cycle,
			OnCycle: func(m *sim.Machine) {
				// pick among dirty lines (the output data awaiting writeback)
				var dirty []int
				for i := 0; i < m.L2.NumLines(); i++ {
					if ln := m.L2.LineAt(i); ln.Valid && ln.Dirty {
						dirty = append(dirty, i)
					}
				}
				if len(dirty) == 0 {
					return
				}
				line := dirty[rng.Intn(len(dirty))]
				m.L2.FlipBit(line, uint32(rng.Intn(64)), uint8(rng.Intn(8)))
			},
		})
		if Classify(g, res, true).Outcome == faults.SDC {
			sdc++
		}
	}
	if sdc == 0 {
		t.Error("late L2 flips never corrupted the output — writeback path broken")
	}
}

// TestInjectPrunedEquivalence is the load-bearing property behind
// liveness-guided pruning: for every seed, InjectPruned must classify
// bit-identically to the brute-force Inject — same outcome, same detail,
// same control-affected flag — while skipping the simulation on provably
// dead sites. Run over enough seeds to exercise live, dead, and
// empty-window paths.
func TestInjectPrunedEquivalence(t *testing.T) {
	job := saxpyJob(256)
	cfg := gpu.Volta()
	g, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := ace.TraceRF(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, burst := range []int{1, 2} {
		tgt := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: burst}}
		pruned, simulated := 0, 0
		for seed := int64(0); seed < 150; seed++ {
			want := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
			got, wasPruned := InjectPruned(job, g, lv, tgt, rand.New(rand.NewSource(seed)))
			if got != want {
				t.Fatalf("burst %d seed %d: pruned %+v != brute-force %+v (pruned=%v)",
					burst, seed, got, want, wasPruned)
			}
			if wasPruned {
				pruned++
				if got.Outcome != faults.Masked {
					t.Fatalf("burst %d seed %d: pruned a non-masked outcome %+v", burst, seed, got)
				}
			} else {
				simulated++
			}
		}
		t.Logf("burst %d: %d pruned, %d simulated", burst, pruned, simulated)
		if pruned == 0 {
			t.Errorf("burst %d: no runs pruned — liveness map finds no dead sites", burst)
		}
		if simulated == 0 {
			t.Errorf("burst %d: all runs pruned — suspiciously aggressive", burst)
		}
	}
}

// TestInjectPrunedNonRF: other structures fall through to Inject verbatim.
func TestInjectPrunedNonRF(t *testing.T) {
	job := saxpyJob(128)
	cfg := gpu.Volta()
	g, _ := Golden(job, cfg)
	lv, err := ace.TraceRF(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []gpu.Structure{gpu.SMEM, gpu.L1D, gpu.L2} {
		tgt := Target{Structure: st, Kernel: "K1"}
		for seed := int64(0); seed < 25; seed++ {
			want := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
			got, wasPruned := InjectPruned(job, g, lv, tgt, rand.New(rand.NewSource(seed)))
			if wasPruned {
				t.Fatalf("%s: non-RF run must never be pruned", st)
			}
			if got != want {
				t.Fatalf("%s seed %d: %+v != %+v", st, seed, got, want)
			}
		}
	}
	// ECC-screened runs classify without simulation on both paths.
	eccCfg := gpu.Volta().WithECC(gpu.RF)
	gECC, _ := Golden(job, eccCfg)
	lvECC, _ := ace.TraceRF(job, eccCfg)
	r, wasPruned := InjectPruned(job, gECC, lvECC, Target{Structure: gpu.RF, Kernel: "K1"}, rand.New(rand.NewSource(1)))
	if wasPruned || r.Outcome != faults.Masked || r.Detail != "corrected by ECC" {
		t.Errorf("ECC screen must not count as pruning: %+v pruned=%v", r, wasPruned)
	}
}

func TestMultiBitBurst(t *testing.T) {
	job := saxpyJob(256)
	g, _ := Golden(job, gpu.Volta())
	tgt := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 3}}
	r := Inject(job, g, tgt, rand.New(rand.NewSource(5)))
	if r.Outcome >= faults.NumOutcomes {
		t.Errorf("burst injection produced bad outcome %v", r.Outcome)
	}
}

// TestECCProtection: SEC-DED on a structure corrects singles and converts
// doubles into DUEs; triples strike through.
func TestECCProtection(t *testing.T) {
	job := saxpyJob(128)
	cfg := gpu.Volta().WithECC(gpu.RF)
	g, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 1}}
	double := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 2}}
	triple := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 3}}
	for seed := int64(0); seed < 20; seed++ {
		if r := Inject(job, g, single, rand.New(rand.NewSource(seed))); r.Outcome != faults.Masked {
			t.Fatalf("ECC must correct single-bit faults, got %v", r.Outcome)
		}
		if r := Inject(job, g, double, rand.New(rand.NewSource(seed))); r.Outcome != faults.DUE {
			t.Fatalf("ECC must detect double-bit faults as DUE, got %v", r.Outcome)
		}
	}
	// triples bypass SEC-DED: at least one run must escape as non-DUE-non-masked
	// or corrupt state (any outcome is legal, but injection must happen)
	escaped := false
	for seed := int64(0); seed < 30; seed++ {
		r := Inject(job, g, triple, rand.New(rand.NewSource(seed)))
		if r.Outcome == faults.SDC || r.Outcome == faults.Timeout {
			escaped = true
		}
	}
	if !escaped {
		t.Log("no triple-burst corruption observed at this sample size (acceptable)")
	}
	// unprotected structures unaffected by the RF ECC flag
	l2 := Target{Structure: gpu.L2, Kernel: "K1", Model: faultmodel.Transient{Width: 1}}
	sawNonMasked := false
	for seed := int64(0); seed < 60; seed++ {
		if r := Inject(job, g, l2, rand.New(rand.NewSource(seed))); r.Outcome != faults.Masked {
			sawNonMasked = true
		}
	}
	if !sawNonMasked {
		t.Log("all L2 injections masked at this sample size")
	}
}
