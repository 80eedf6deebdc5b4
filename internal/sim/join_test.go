package sim_test

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
)

// Joins: a converging run joins golden at a grid cycle whose snapshot its
// state matches. These tests hold every join to a run that never joins, run
// for run rather than in the tally, and check that joins happen. They
// inject through Inject, so a flip that is dead before anything reads it,
// which InjectStatic decides from the golden run's interval map without a
// run, runs here too and joins at a grid cycle like any other.

// joinRuns is the number of runs per (job, structure) point.
const joinRuns = 20

// perRunEquivalence injects runs 0..n-1 of tgt into job against the
// reference golden ref and the converging checkpointed one ck, seeded alike,
// and fails on the first run whose classifications differ.
func perRunEquivalence(t *testing.T, job *device.Job, ref, ck *microfi.GoldenRun, tgt microfi.Target, n int) [faults.NumOutcomes]int {
	t.Helper()
	var tally [faults.NumOutcomes]int
	for run := 0; run < n; run++ {
		want := microfi.Inject(job, ref, tgt, rand.New(rand.NewSource(int64(run))))
		got := microfi.Inject(job, ck, tgt, rand.New(rand.NewSource(int64(run))))
		if got != want {
			t.Fatalf("%s run %d: converging fork %+v != reference %+v", tgt.Structure, run, got, want)
		}
		tally[want.Outcome]++
	}
	return tally
}

// goldens builds three goldens of job: brute force, checkpointed on about 24
// snapshots without joins (every run forks and then simulates to the end,
// bit-identical to brute force by TestCheckpointEquivalence* and at a
// fraction of its cost), and the same with convergence joins.
func goldens(t *testing.T, job *device.Job) (brute, fork, ck *microfi.GoldenRun) {
	t.Helper()
	cfg := gpu.Volta()
	brute, err := microfi.Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := microfi.CheckpointSpec{Stride: brute.Res.Cycles/24 + 1}
	if fork, err = microfi.GoldenCheckpointed(job, cfg, spec); err != nil {
		t.Fatal(err)
	}
	spec.Converge = true
	if ck, err = microfi.GoldenCheckpointed(job, cfg, spec); err != nil {
		t.Fatal(err)
	}
	return brute, fork, ck
}

// TestDeadSiteJoinEquivalence: on every app, plain and TMR, and every
// storage structure, each run against a converging checkpointed golden
// classifies exactly like the same run forked without joins, and grid joins
// happen. (Brute force itself would take twice as long.) Every shipped app
// must pass the FreeDead guard, which the register-file and shared-memory
// pruners rely on.
func TestDeadSiteJoinEquivalence(t *testing.T) {
	type point struct {
		name     string
		job      *device.Job
		fork, ck *microfi.GoldenRun
		tmr      bool
	}
	var points []point
	for _, app := range kernels.All() {
		for _, tmr := range []bool{false, true} {
			p := point{name: app.Name, job: app.Build(), tmr: tmr}
			if tmr {
				p.name += "-TMR"
				p.job = harden.TMR(p.job)
			}
			_, p.fork, p.ck = goldens(t, p.job)
			if !p.ck.Res.FreeDead {
				t.Fatalf("%s: the guard fails on a shipped app", p.name)
			}
			points = append(points, p)
		}
	}
	var joins int64
	for _, st := range gpu.Structures {
		joins += sim.CountJoins(func() {
			t.Run(st.String(), func(t *testing.T) {
				for _, p := range points {
					p := p
					t.Run(p.name, func(t *testing.T) {
						t.Parallel()
						perRunEquivalence(t, p.job, p.fork, p.ck, microfi.Target{Structure: st, IncludeVote: p.tmr}, joinRuns)
					})
				}
			})
		})
	}
	t.Logf("grid joins: %d", joins)
	if joins == 0 {
		t.Error("no run joined")
	}
}

// uninitRegJob runs a raw program, built without kasm and its linter, that
// reads R5 before writing it: each thread adds the R5 an earlier CTA on the
// same register block left behind to its index, writes the sum out, then
// sets R5 to its own output address, a value the CTA never reads again.
func uninitRegJob() *device.Job {
	prog := &isa.Program{Name: "uninit-r5", NumRegs: 6, Code: []isa.Instr{
		{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		{Op: isa.OpS2R, Dst: 1, Special: isa.SRCtaIDX},
		{Op: isa.OpS2R, Dst: 2, Special: isa.SRNTidX},
		{Op: isa.OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 0},
		{Op: isa.OpLDC, Dst: 3, Imm: 0},
		{Op: isa.OpISCADD, Dst: 3, SrcA: 0, SrcB: 3, Imm2: 2},
		{Op: isa.OpIADD, Dst: 4, SrcA: 5, SrcB: 0},
		{Op: isa.OpSTG, SrcA: 3, SrcB: 4},
		{Op: isa.OpMOV, Dst: 5, SrcA: 3},
		{Op: isa.OpEXIT},
	}}
	const grid, block = 256, 32
	m := device.NewMemory(1 << 16)
	out := m.Alloc("out", 4*grid*block)
	return &device.Job{
		Name: "uninit", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: grid, GridY: 1, BlockX: block, BlockY: 1,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * grid * block}},
	}
}

// TestDeadSiteJoinGuardFails: on a program that reads a register before
// writing it the guard fails; every run against a converging golden still
// classifies like brute force, and some reach the leftover reads.
func TestDeadSiteJoinGuardFails(t *testing.T) {
	job := uninitRegJob()
	brute, _, ck := goldens(t, job)
	if ck.Res.FreeDead || brute.Res.FreeDead {
		t.Fatal("the guard holds on a program that reads an uninitialised register")
	}
	var tally [faults.NumOutcomes]int
	joins := sim.CountJoins(func() {
		tally = perRunEquivalence(t, job, brute, ck, microfi.Target{Structure: gpu.RF}, 60)
	})
	t.Logf("tally %v, joins %d", tally, joins)
	if tally[faults.SDC] == 0 {
		t.Error("no run reached a leftover register: the test exercises nothing")
	}
}

// FuzzForkJoinParity holds the joins and the pruner to brute force on
// generated programs, which read uninitialised registers and shared memory
// freely, so the guard often fails there: for every sampled transient
// injection on RF, SMEM, L1D and L2 the converging checkpointed run, and
// InjectStatic over the program's traced interval map, classify exactly
// like brute force. Programs whose fault-free run faults or never ends have
// no golden and are skipped.
func FuzzForkJoinParity(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 7, 11, 250, 128, 42, 9, 0, 200, 17, 66, 1, 2, 3, 4, 5})
	f.Add(bytes.Repeat([]byte{0xA5, 0x17, 0xC3, 0x08}, 16))
	f.Add([]byte("shared memory left behind"))
	f.Add(fuzzprog.GuardedExit)
	f.Fuzz(func(t *testing.T, data []byte) {
		job := fuzzprog.Job(fuzzprog.Program(data))
		cfg := gpu.Volta()
		brute, err := microfi.Golden(job, cfg)
		if err != nil {
			t.Skip("no golden run:", err)
		}
		ck, err := microfi.GoldenCheckpointed(job, cfg, microfi.CheckpointSpec{Stride: brute.Res.Cycles/8 + 1, Converge: true})
		if err != nil {
			t.Fatal(err)
		}
		static, err := microfi.TraceStatic(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64() >> 1)
		for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D, gpu.L2} {
			tgt := microfi.Target{Structure: st}
			for run := int64(0); run < 4; run++ {
				want := microfi.Inject(job, brute, tgt, rand.New(rand.NewSource(seed+run)))
				got := microfi.Inject(job, ck, tgt, rand.New(rand.NewSource(seed+run)))
				if got != want {
					t.Fatalf("%s run %d (guard %v): converging fork %+v != brute force %+v", st, run, brute.Res.FreeDead, got, want)
				}
				if got, pruned := microfi.InjectStatic(job, ck, static, tgt, rand.New(rand.NewSource(seed+run))); got != want {
					t.Fatalf("%s run %d (guard %v): InjectStatic %+v (pruned=%v) != brute force %+v", st, run, brute.Res.FreeDead, got, pruned, want)
				}
			}
		}
	})
}
