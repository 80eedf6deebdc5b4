package funcsim

import (
	"bytes"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/sim"
)

// square builds out[i] = in[i]*in[i].
func square(n int) *isa.Program {
	b := kasm.New("square")
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), b.S2R(isa.SRTidX))
	p := b.P()
	b.ISetpI(p, isa.CmpLT, i, int32(n))
	b.If(p, false, func() {
		v := b.Ldg(b.IScAdd(i, b.Param(0), 2), 0)
		b.Stg(b.IScAdd(i, b.Param(1), 2), 0, b.IMul(v, v))
	})
	b.FreeP(p)
	return b.MustBuild()
}

func squareJob(n int) *device.Job {
	m := device.NewMemory(1 << 18)
	in := m.Alloc("in", 4*n)
	out := m.Alloc("out", 4*n)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	m.WriteU32s(in, vals)
	return &device.Job{
		Name: "sq", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: square(n), KernelName: "K1",
			GridX: 2, GridY: 1, BlockX: n / 2, BlockY: 1,
			Params: []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: uint32(4 * n)}},
	}
}

func TestFunctionalRun(t *testing.T) {
	job := squareJob(128)
	r := Run(job, Options{CollectWindows: true})
	if r.Err != nil || r.TimedOut {
		t.Fatalf("run failed: %v", r.Err)
	}
	for i := 0; i < 128; i++ {
		got := uint32(r.Output[4*i]) | uint32(r.Output[4*i+1])<<8 |
			uint32(r.Output[4*i+2])<<16 | uint32(r.Output[4*i+3])<<24
		if got != uint32(i*i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	kc := r.PerKernel["K1"]
	if kc == nil || kc.DynInstrs == 0 {
		t.Fatal("missing kernel counts")
	}
	if len(kc.DstWindows) != 1 || kc.DstWindows[0].Len() != r.DstCands {
		t.Errorf("dst window %+v must cover all %d candidates", kc.DstWindows, r.DstCands)
	}
	if r.LoadCands == 0 || r.LoadCands >= r.DstCands {
		t.Errorf("load candidates (%d) must be a proper subset of writes (%d)", r.LoadCands, r.DstCands)
	}
	if r.UseCands == 0 {
		t.Error("use candidates must be counted when collecting windows")
	}
}

func TestInjectionDeterminism(t *testing.T) {
	job := squareJob(128)
	inj := &Injection{Mode: InjectDst, Index: 100, Bit: 7}
	a := Run(job, Options{Inject: inj})
	b := Run(job, Options{Inject: inj})
	if !bytes.Equal(a.Output, b.Output) {
		t.Error("identical injections must produce identical outputs")
	}
}

func TestInjectionCorrupts(t *testing.T) {
	job := squareJob(128)
	golden := Run(job, Options{CollectWindows: true})
	// sample injection sites across the whole dynamic-write space; flipping
	// bit 30 must corrupt the output (or crash) for some of them
	diff := false
	for k := int64(0); k < 40 && !diff; k++ {
		idx := (k * 97) % golden.DstCands
		r := Run(job, Options{Inject: &Injection{Mode: InjectDst, Index: idx, Bit: 30}})
		if r.Err != nil || !bytes.Equal(r.Output, golden.Output) {
			diff = true
		}
	}
	if !diff {
		t.Error("no injection corrupted the output")
	}
}

func TestInjectLoadOnlyTargetsLoads(t *testing.T) {
	job := squareJob(64)
	g := Run(job, Options{CollectWindows: true})
	// Inject into load candidates. Bit 31 would be arithmetically masked by
	// the squaring (2·v·2^31 ≡ 0 mod 2^32), so flip bit 16.
	hit := 0
	for idx := int64(0); idx < g.LoadCands; idx += 3 {
		r := Run(job, Options{Inject: &Injection{Mode: InjectDstLoad, Index: idx, Bit: 16}})
		if r.Err != nil || !bytes.Equal(r.Output, g.Output) {
			hit++
		}
	}
	if hit == 0 {
		t.Error("load-only injections never propagated")
	}
}

func TestInjectUseDoesNotPersist(t *testing.T) {
	// A use-mode injection corrupts a single read; the stored register keeps
	// its value. Build a kernel that reads the same register twice and
	// stores both reads: only one store may be corrupted.
	b := kasm.New("twice")
	v := b.MovI(5)
	b.Stg(b.Param(0), 0, v)
	b.Stg(b.Param(0), 4, v)
	prog := b.MustBuild()
	m := device.NewMemory(1 << 14)
	out := m.Alloc("out", 8)
	job := &device.Job{
		Name: "u", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 8}},
	}
	g := Run(job, Options{CollectWindows: true})
	corrupted := 0
	for idx := int64(0); idx < g.UseCands; idx++ {
		r := Run(job, Options{Inject: &Injection{Mode: InjectUse, Index: idx, Bit: 1}})
		if r.Err != nil {
			continue
		}
		a := r.Output[0] != g.Output[0]
		bC := r.Output[4] != g.Output[4]
		if a && bC {
			t.Fatalf("use-mode injection at %d persisted across two reads", idx)
		}
		if a || bC {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("no use injection had any effect")
	}
}

// loopJob increments a counter once per launch; the host step loops back
// until it reads 5.
func loopJob() *device.Job {
	m := device.NewMemory(1 << 14)
	cnt := m.Alloc("cnt", 4)
	prog := func() *isa.Program {
		b := kasm.New("inc")
		p := b.P()
		b.ISetpI(p, isa.CmpEQ, b.S2R(isa.SRTidX), 0)
		b.If(p, false, func() {
			a := b.Param(0)
			b.Stg(a, 0, b.IAddI(b.Ldg(a, 0), 1))
		})
		b.FreeP(p)
		return b.MustBuild()
	}()
	return &device.Job{
		Name: "loop", Mem: m,
		Steps: []device.Step{
			{Launch: &device.Launch{Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
				Params: []uint32{cnt}, ParamIsPtr: []bool{true}}},
			{Host: func(mm *device.Memory, off uint32) int {
				if mm.PeekU32(cnt+off) < 5 {
					return 0
				}
				return -1
			}},
		},
		Outputs: []device.Output{{Name: "cnt", Addr: cnt, Size: 4}},
	}
}

func TestHostStepJump(t *testing.T) {
	job := loopJob()
	r := Run(job, Options{})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Output[0] != 5 {
		t.Errorf("host loop ran kernel %d times, want 5", r.Output[0])
	}

	// resumed: the counter lives in memory, so a run picked up at any launch
	// or host step of the loop still stops at 5
	g := Run(job, Options{Record: true})
	if g.Checkpoints.Len() != 10 {
		t.Fatalf("%d boundaries, want 5 launches + 5 host steps", g.Checkpoints.Len())
	}
	for k := 0; k < g.Checkpoints.Len(); k++ {
		r := Run(job, Options{Resume: g.Checkpoints, ResumeAt: k})
		if r.Err != nil || r.TimedOut || r.Output[0] != 5 || r.DynInstrs != g.DynInstrs {
			t.Errorf("resumed at %d: count %d, %d thread-instructions (golden %d), err %v",
				k, r.Output[0], r.DynInstrs, g.DynInstrs, r.Err)
		}
	}
}

func TestScheduleBudgetTimeout(t *testing.T) {
	m := device.NewMemory(1 << 14)
	calls := 0
	job := &device.Job{
		Name: "spin", Mem: m,
		Steps: []device.Step{
			{Host: func(mm *device.Memory, off uint32) int { calls++; return 0 }}, // infinite loop
		},
	}
	r := Run(job, Options{})
	if !r.TimedOut {
		t.Error("runaway host loop must time out via the schedule budget")
	}

	// resumed: the step count is part of the position, so a run picked up
	// after k steps has only the rest of the budget left
	g := Run(job, Options{Record: true})
	budget := job.MaxScheduleSteps()
	if !g.TimedOut || g.Checkpoints.Len() != budget+1 {
		t.Fatalf("recorded run: timed out %v, %d boundaries, budget %d", g.TimedOut, g.Checkpoints.Len(), budget)
	}
	for _, k := range []int{0, 1, budget / 2, budget} {
		calls = 0
		r := Run(job, Options{Resume: g.Checkpoints, ResumeAt: k})
		if !r.TimedOut || calls != budget-k {
			t.Errorf("resumed at %d: timed out %v after %d host steps, want %d", k, r.TimedOut, calls, budget-k)
		}
	}
}

func TestDynInstrBudget(t *testing.T) {
	job := squareJob(128)
	r := Run(job, Options{MaxDynInstrs: 10})
	if !r.TimedOut {
		t.Error("tiny instruction budget must time out")
	}

	// resumed: thread-instructions executed before the boundary count
	// against the budget exactly as if the run had executed them
	g := Run(job, Options{Record: true})
	for k := 0; k < g.Checkpoints.Len(); k++ {
		if r := Run(job, Options{MaxDynInstrs: 10, Resume: g.Checkpoints, ResumeAt: k}); !r.TimedOut {
			t.Errorf("resumed at %d: tiny instruction budget must time out", k)
		}
		if r := Run(job, Options{MaxDynInstrs: g.DynInstrs - 1, Resume: g.Checkpoints, ResumeAt: k}); !r.TimedOut {
			t.Errorf("resumed at %d: a budget one short of the run must time out", k)
		}
		if r := Run(job, Options{MaxDynInstrs: g.DynInstrs, Resume: g.Checkpoints, ResumeAt: k}); r.TimedOut || !bytes.Equal(r.Output, g.Output) {
			t.Errorf("resumed at %d: the exact budget must suffice", k)
		}
	}
}

// TestWildAddressAtTheTopIsDUE: a load whose address register holds 0 under
// a negative offset — what a corrupted base under a [R-4] stencil offset
// looks like — lands on the top word of the address space. Both simulators
// must classify it as a DUE with the usual access error; before
// device.Memory.Valid stopped computing addr+n it passed the range test by
// wrapping and indexed 4 GiB past the memory image.
func TestWildAddressAtTheTopIsDUE(t *testing.T) {
	b := kasm.New("wild")
	b.Stg(b.Param(0), 0, b.Ldg(isa.RZ, -4))
	prog := b.MustBuild()
	m := device.NewMemory(1 << 14)
	out := m.Alloc("out", 64)
	job := &device.Job{
		Name: "wild", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 64}},
	}
	const want = "illegal global memory read at 0xfffffffc"
	if r := Run(job, Options{}); r.Err == nil || r.Err.Error() != want {
		t.Errorf("funcsim: err %v, want %q", r.Err, want)
	}
	if r := sim.Run(job, gpu.Volta(), sim.Options{}); r.Err == nil || r.Err.Error() != want {
		t.Errorf("sim: err %v, want %q", r.Err, want)
	}
}
