package sim_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// Storage lifetimes. flow.Recorder builds the repository's one record of
// register and shared-memory lifetime from a µop-core run's schedule trace:
// which instruction each warp issued, with which lanes, on which lanes a SEL
// picked its A operand, and which shared-memory word each LDS and STS lane
// accessed. The oracle is the reference core's per-access stream
// (sim.TraceOracle): exec.Step reads and writes each register through
// accessors, one lane at a time, with no notion of operand positions, and
// reaches shared memory through its Env with the address it computed. The
// two records must agree site for site. A faulting instruction issues on
// neither side, so a faulting run is compared up to its fault.

// lifetimes is what one comparison saw: sampled sites and live ones, of the
// register file and of shared memory.
type lifetimes struct {
	res                 *sim.Result
	iv                  *flow.Intervals
	end                 int64 // the run's last cycle, also when it faulted or timed out
	sites, live         int
	smemSites, smemLive int
}

// checkLifetimes runs build() on the µop core under flow's recorder and on
// the reference core under the oracle, and requires the two runs to agree in
// full, the interval map to be well-formed, both records to sum to the same
// live register-cycles, and — at every cycle cycles picks — the same
// allocated register and shared-memory blocks on every SM and the same
// live/dead answer at every register and shared-memory byte in them.
func checkLifetimes(t *testing.T, build func() *device.Job, maxCycles int64, cycles func(res *sim.Result, end int64) []int64) lifetimes {
	t.Helper()
	cfg := gpu.Volta()
	rec := flow.NewRecorder()
	res := sim.Run(build(), cfg, sim.Options{MaxCycles: maxCycles, SchedTrace: rec})
	iv := rec.Finalize(res.Cycles)
	if err := iv.Check(); err != nil {
		t.Fatalf("interval invariants violated: %v", err)
	}
	oracle, ref := sim.TraceOracle(build(), cfg, maxCycles)
	sameResult(t, "µop", res, "reference", ref)
	if got, want := iv.RFLiveCycles(), oracle.LiveCycles(); got != want {
		t.Errorf("live register-cycles: intervals %d, oracle %d", got, want)
	}
	// A run that faults or times out reports 0 cycles; it ends at its last
	// recorded event.
	lt := lifetimes{res: res, iv: iv, end: max(res.Cycles, oracle.End)}
	for _, c := range cycles(res, lt.end) {
		for sm := 0; sm < cfg.NumSMs; sm++ {
			sameSites(t, "register", sm, c, iv.RFBlocksAt(sm, c, nil), oracle.RFBlocksAt(sm, c, nil),
				iv.LiveRF, oracle.Live, &lt.sites, &lt.live)
			sameSites(t, "shared-memory", sm, c, iv.SmemBlocksAt(sm, c, nil), oracle.SmemBlocksAt(sm, c, nil),
				iv.LiveSmem, oracle.LiveSmem, &lt.smemSites, &lt.smemLive)
		}
	}
	return lt
}

// sameSites requires one array's allocated blocks on an SM at a cycle to be
// the same in the intervals and the oracle, and every site in them to be
// live in both or dead in both; it counts the sites and the live ones.
func sameSites(t *testing.T, what string, sm int, c int64, got []flow.Blk, want []sim.RFBlock,
	ivLive, oracleLive func(sm, idx int, c int64) bool, sites, live *int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cycle %d sm %d: %s allocation timelines diverge: intervals %v, oracle %v", c, sm, what, got, want)
	}
	for i, b := range want {
		if got[i] != flow.Blk(b) {
			t.Fatalf("cycle %d sm %d: %s block %d is %+v in the intervals, %+v in the oracle", c, sm, what, i, got[i], b)
		}
		for idx := b.Base; idx < b.Base+b.Size; idx++ {
			dyn := oracleLive(sm, idx, c)
			if st := ivLive(sm, idx, c); st != dyn {
				t.Fatalf("sm %d %s %d cycle %d: live in the intervals %v, in the oracle %v", sm, what, idx, c, st, dyn)
			}
			*sites++
			if dyn {
				*live++
			}
		}
	}
}

// perSpan samples n cycles of every launch span, evenly from its first
// injectable cycle.
func perSpan(n int64) func(*sim.Result, int64) []int64 {
	return func(res *sim.Result, _ int64) []int64 {
		var cs []int64
		for _, sp := range res.Spans {
			for s := int64(0); s < n; s++ {
				cs = append(cs, sp.Start+1+(sp.End-sp.Start-1)*s/n)
			}
		}
		return cs
	}
}

// across samples about n cycles evenly over the whole run, so a run that
// faults or times out inside a launch is sampled up to its end.
func across(n int64) func(*sim.Result, int64) []int64 {
	return func(_ *sim.Result, end int64) []int64 {
		var cs []int64
		for c := int64(1); c <= end; c += 1 + end/n {
			cs = append(cs, c)
		}
		return cs
	}
}

// everyCycle checks every cycle of a small run.
func everyCycle(_ *sim.Result, end int64) []int64 {
	cs := make([]int64, end)
	for i := range cs {
		cs[i] = int64(i) + 1
	}
	return cs
}

// TestIntervalsEqualOracle: every parity job (each application plain and
// TMR-hardened, one multi-kernel selective subset) and every single-kernel
// harden.Selective variant, at 16 cycles of every launch.
func TestIntervalsEqualOracle(t *testing.T) {
	jobs := parityJobs(t)
	for _, app := range kernels.All() {
		for _, k := range app.Kernels {
			set := harden.NewSet(k)
			if set.Covers(app.Build()) {
				continue // a one-kernel app: the set is TMR
			}
			jobs = append(jobs, parityJob{app.Name + "-Selective-" + k, func() *device.Job { return harden.Selective(app.Build(), set) }})
		}
	}
	for _, pj := range jobs {
		t.Run(pj.name, func(t *testing.T) {
			lt := checkLifetimes(t, pj.build, 0, perSpan(16))
			if lt.res.Err != nil || lt.res.TimedOut || lt.live == 0 {
				t.Fatalf("degenerate run: err=%v timeout=%v, %d of %d sampled sites live", lt.res.Err, lt.res.TimedOut, lt.live, lt.sites)
			}
			t.Logf("%d sampled register sites, %d live; %d shared-memory bytes, %d live", lt.sites, lt.live, lt.smemSites, lt.smemLive)
		})
	}
}

// TestIntervalsEqualOracleGenerated: programs from the FuzzUOpParity
// generator, which write RZ, guard with @!PT and fault on wild addresses.
// None of them diverges: a random stream never splits a warp (guards read
// predicates that start clear and registers that start at zero; none of
// 20 000 streams did), so divergence reaches the interval oracle only
// through FuzzIntervals' fuzzprog.GuardedExit seed and its mutations.
func TestIntervalsEqualOracleGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	faulted, timedOut := 0, 0
	for seed := 0; seed < 48; seed++ {
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		prog := fuzzprog.Program(data)
		lt := checkLifetimes(t, func() *device.Job { return fuzzprog.Job(prog) }, 20000, across(64))
		if lt.res.Err != nil {
			faulted++
		}
		if lt.res.TimedOut {
			timedOut++
		}
	}
	t.Logf("48 programs: %d faulted, %d timed out", faulted, timedOut)
	if faulted < 8 || faulted > 40 {
		t.Errorf("%d of 48 generated programs faulted: the seeds no longer cover both faulting and completing runs", faulted)
	}
}

// FuzzIntervals: whatever program the generator builds, completed, faulting
// or timed out, the interval map equals the oracle.
func FuzzIntervals(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 7, 11, 250, 128, 42, 9, 0, 200, 17, 66, 1, 2, 3, 4, 5})
	f.Add(bytes.Repeat([]byte{0xA5, 0x17, 0xC3, 0x08}, 16))
	f.Add([]byte("divergent branches and barriers"))
	f.Add(fuzzprog.GuardedExit)
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzprog.Program(data)
		checkLifetimes(t, func() *device.Job { return fuzzprog.Job(prog) }, 20000, across(64))
	})
}

// oneWarpJob runs prog as a single 32-thread CTA: it lands on SM 0 at
// register-file base 0, so lane l's register r is physical l*NumRegs + r.
func oneWarpJob(prog *isa.Program, bufBytes int) *device.Job {
	m := device.NewMemory(1 << 16)
	buf := m.Alloc("buf", bufBytes)
	return &device.Job{
		Name: prog.Name, Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
			Params: []uint32{buf}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "buf", Addr: buf, Size: uint32(bufBytes)}},
	}
}

const p0 = isa.P0

// liveLanes returns the lanes of a one-warp run on which register reg is
// live at some cycle.
func liveLanes(lt lifetimes, numRegs int, reg isa.Reg) uint32 {
	var lanes uint32
	for lane := 0; lane < 32; lane++ {
		for c := int64(1); c <= lt.end; c++ {
			if lt.iv.LiveRF(0, lane*numRegs+int(reg), c) {
				lanes |= 1 << lane
				break
			}
		}
	}
	return lanes
}

// TestIntervalsSELShapes: a SEL lane reads only the operand its predicate
// picked. Every source register below is read by its SEL alone, so it must
// be live on exactly the lanes that picked it — checked against the oracle
// at every site of every cycle, and pinned per lane. P0 holds on lanes 0–15,
// the guard P1 on lanes 8–31.
func TestIntervalsSELShapes(t *testing.T) {
	const numRegs = 14
	code := []isa.Instr{
		{Op: isa.OpS2R, Dst: 0, Special: isa.SRLaneID},
		{Op: isa.OpISETP, PDst: p0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		{Op: isa.OpISETP, PDst: isa.P1, Cmp: isa.CmpGE, SrcA: 0, BImm: true, Imm: 8},
	}
	for r := isa.Reg(1); r < numRegs; r++ {
		code = append(code, isa.Instr{Op: isa.OpMOVI, Dst: r, Imm: int32(r)})
	}
	code = append(code,
		isa.Instr{Op: isa.OpSEL, Dst: 3, SrcA: 1, BImm: true, Imm: 9, SelPred: p0},     // immediate B
		isa.Instr{Op: isa.OpSEL, Dst: 4, SrcA: isa.RZ, SrcB: 2, SelPred: p0},           // RZ as A
		isa.Instr{Op: isa.OpSEL, Dst: 5, SrcA: 13, SrcB: isa.RZ, SelPred: p0},          // RZ as B
		isa.Instr{Op: isa.OpSEL, Dst: isa.RZ, SrcA: 6, SrcB: 7, SelPred: p0},           // into RZ: lowers to KDrop
		isa.Instr{Op: isa.OpSEL, Dst: 8, SrcA: 9, SrcB: 10, SelPred: p0, Pred: isa.P1}, // guard-predicated
		isa.Instr{Op: isa.OpSEL, Dst: 11, SrcA: 12, SrcB: 11, SelPred: p0},             // K-Means' SelTo: Dst is its own B
		isa.Instr{Op: isa.OpEXIT},
	)
	prog := &isa.Program{Name: "sel", NumRegs: numRegs, Code: code}
	lt := checkLifetimes(t, func() *device.Job { return oneWarpJob(prog, 256) }, 0, everyCycle)
	if lt.res.Err != nil || lt.res.TimedOut {
		t.Fatalf("run failed: %v timeout=%v", lt.res.Err, lt.res.TimedOut)
	}
	const low, high, guardedLow = 0x0000ffff, 0xffff0000, 0x0000ff00
	for _, c := range []struct {
		what  string
		reg   isa.Reg
		lanes uint32
	}{
		{"A beside an immediate B", 1, low},
		{"B beside RZ as A", 2, high},
		{"A beside RZ as B", 13, low},
		{"A of a SEL into RZ", 6, low},
		{"B of a SEL into RZ", 7, high},
		{"A of a guarded SEL", 9, guardedLow},
		{"B of a guarded SEL", 10, high},
		{"A of SelTo", 12, low},
		{"B of SelTo, also its destination", 11, high},
	} {
		if got := liveLanes(lt, numRegs, c.reg); got != c.lanes {
			t.Errorf("R%d (%s): live on lanes %#08x, want %#08x", c.reg, c.what, got, c.lanes)
		}
	}
}

// TestIntervalsMidInstructionFault: a load whose 17th lane leaves the
// buffer. Lanes before it have read their address and written their
// destination when the fault stops the run, but the instruction never
// issued: neither record holds any of it, so the address register, read by
// that load alone, is live on no lane.
func TestIntervalsMidInstructionFault(t *testing.T) {
	prog := &isa.Program{Name: "midfault", NumRegs: 4, Code: []isa.Instr{
		{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		{Op: isa.OpLDC, Dst: 1, Imm: 0},
		{Op: isa.OpISCADD, Dst: 2, SrcA: 0, SrcB: 1, Imm2: 7}, // buf + 128*tid
		{Op: isa.OpLDG, Dst: 3, SrcA: 2},
		{Op: isa.OpEXIT},
	}}
	lt := checkLifetimes(t, func() *device.Job { return oneWarpJob(prog, 16*128) }, 0, everyCycle)
	if lt.res.Err == nil {
		t.Fatal("the out-of-bounds load did not fault")
	}
	if got := liveLanes(lt, prog.NumRegs, 2); got != 0 {
		t.Errorf("R2 live on lanes %#08x: the faulting load's reads were recorded", got)
	}
	if got := liveLanes(lt, prog.NumRegs, 0); got != ^uint32(0) {
		t.Errorf("R0 live on lanes %#08x, want every lane (ISCADD reads it)", got)
	}
}

// TestIntervalsSmemShapes: shared memory is recorded per word from the
// addresses the lanes actually used. Each lane stores its lane id to words
// lane and 32+lane, then overwrites word lane before any read; lanes 0–15
// load word lane back through an address register, and every lane loads
// word 32 through RZ. So the first stores are dead, and words 16–31 and
// 33–63 are stored but never read: only words 0–15 and 32 are ever live —
// checked against the oracle at every site of every cycle, and pinned.
func TestIntervalsSmemShapes(t *testing.T) {
	prog := &isa.Program{Name: "smem", NumRegs: 4, Code: []isa.Instr{
		{Op: isa.OpS2R, Dst: 0, Special: isa.SRLaneID},
		{Op: isa.OpSHL, Dst: 1, SrcA: 0, BImm: true, Imm: 2},
		{Op: isa.OpISETP, PDst: p0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		{Op: isa.OpSTS, SrcA: 1, SrcB: 0},
		{Op: isa.OpSTS, SrcA: 1, SrcB: 0, Imm: 128},
		{Op: isa.OpSTS, SrcA: 1, SrcB: 1},
		{Op: isa.OpLDS, Dst: 2, SrcA: 1, Pred: p0},
		{Op: isa.OpLDS, Dst: 3, SrcA: isa.RZ, Imm: 128},
		{Op: isa.OpEXIT},
	}}
	build := func() *device.Job {
		job := oneWarpJob(prog, 256)
		job.Steps[0].Launch.SmemBytes = 256
		return job
	}
	lt := checkLifetimes(t, build, 0, everyCycle)
	if lt.res.Err != nil || lt.res.TimedOut {
		t.Fatalf("run failed: %v timeout=%v", lt.res.Err, lt.res.TimedOut)
	}
	var live []int
	for w := 0; w < 64; w++ {
		for c := int64(1); c <= lt.end; c++ {
			if lt.iv.LiveSmem(0, 4*w, c) {
				live = append(live, w)
				break
			}
		}
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 32}
	if !slices.Equal(live, want) {
		t.Errorf("live words %v, want %v", live, want)
	}
}
