package sim_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/device"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/sim"
)

// Trace parity: a traced run executes each data µop lane by lane
// (traceLanes) and must hand the RF tracer exactly what exec.Step's
// per-access accessors hand it on the reference core — and tracing must not
// change the run it observes.

// regStreams records, per physical register, the ordered stream of events
// that touched it: A(lloc), W(rite), R(ead), F(ree), each with its cycle.
// Block events are expanded to every register of the block, so a register's
// stream is everything a liveness analysis can know about it. With keep
// unset only a running hash per register is held (the application traces
// run to millions of events).
type regStreams struct {
	hash   [][]uint64 // [sm][phys]
	events int64
	keep   bool
	kinds  map[[2]int]*strings.Builder // (sm, phys) → kinds in order, when keep
}

func newRegStreams(cfg gpu.Config, keep bool) *regStreams {
	s := &regStreams{hash: make([][]uint64, cfg.NumSMs), keep: keep, kinds: map[[2]int]*strings.Builder{}}
	for i := range s.hash {
		s.hash[i] = make([]uint64, cfg.RFRegsPerSM)
	}
	return s
}

func (s *regStreams) note(kind byte, sm, phys int, cycle int64) {
	h := &s.hash[sm][phys]
	*h = (*h ^ (uint64(cycle)<<8 | uint64(kind))) * 1099511628211
	s.events++
	if s.keep {
		b := s.kinds[[2]int{sm, phys}]
		if b == nil {
			b = &strings.Builder{}
			s.kinds[[2]int{sm, phys}] = b
		}
		b.WriteByte(kind)
	}
}

func (s *regStreams) OnRegWrite(sm, phys int, cycle int64) { s.note('W', sm, phys, cycle) }
func (s *regStreams) OnRegRead(sm, phys int, cycle int64)  { s.note('R', sm, phys, cycle) }
func (s *regStreams) OnRegAlloc(sm, base, size int, cycle int64) {
	for i := base; i < base+size; i++ {
		s.note('A', sm, i, cycle)
	}
}
func (s *regStreams) OnRegRelease(sm, base, size int, cycle int64) {
	for i := base; i < base+size; i++ {
		s.note('F', sm, i, cycle)
	}
}

// stream returns the kinds recorded for one register.
func (s *regStreams) stream(sm, phys int) string {
	if !s.keep {
		return "(hashed)"
	}
	if b := s.kinds[[2]int{sm, phys}]; b != nil {
		return b.String()
	}
	return ""
}

// fanout feeds one run's events to several tracers.
type fanout []sim.RFTracer

func (f fanout) OnRegWrite(sm, phys int, cycle int64) {
	for _, t := range f {
		t.OnRegWrite(sm, phys, cycle)
	}
}
func (f fanout) OnRegRead(sm, phys int, cycle int64) {
	for _, t := range f {
		t.OnRegRead(sm, phys, cycle)
	}
}
func (f fanout) OnRegAlloc(sm, base, size int, cycle int64) {
	for _, t := range f {
		t.OnRegAlloc(sm, base, size, cycle)
	}
}
func (f fanout) OnRegRelease(sm, base, size int, cycle int64) {
	for _, t := range f {
		t.OnRegRelease(sm, base, size, cycle)
	}
}

// rfTrace is everything one traced run recorded.
type rfTrace struct {
	res     *sim.Result
	streams *regStreams
	live    *ace.Liveness
	tracker *ace.Tracker
}

func traceRun(job *device.Job, cfg gpu.Config, maxCycles int64, keep bool) rfTrace {
	tr := rfTrace{streams: newRegStreams(cfg, keep), live: ace.NewLiveness(cfg), tracker: ace.NewTracker(cfg)}
	tr.res = sim.Run(job, cfg, sim.Options{MaxCycles: maxCycles, RFTrace: fanout{tr.streams, tr.live, tr.tracker}})
	return tr
}

// checkTraceParity runs build() untraced and traced on the µop core and
// traced on the reference core, and requires (1) the traced µop run to equal
// the untraced one in full — the tracer only observes — and (2) both traces
// to agree: every register's event stream, and the ace.Liveness and
// ace.Tracker state built from them. It returns the µop trace.
func checkTraceParity(t *testing.T, build func() *device.Job, maxCycles int64, keep bool) rfTrace {
	t.Helper()
	cfg := gpu.Volta()
	plain := sim.Run(build(), cfg, sim.Options{MaxCycles: maxCycles})
	fast := traceRun(build(), cfg, maxCycles, keep)
	var slow rfTrace
	sim.OnReference(func() { slow = traceRun(build(), cfg, maxCycles, keep) })

	sameResult(t, "untraced", plain, "traced", fast.res)
	sameResult(t, "µop", fast.res, "reference", slow.res)
	if fast.streams.events != slow.streams.events {
		t.Errorf("register events: µop %d, reference %d", fast.streams.events, slow.streams.events)
	}
	for sm := range fast.streams.hash {
		for phys, h := range fast.streams.hash[sm] {
			if h != slow.streams.hash[sm][phys] {
				t.Fatalf("SM %d register %d: event streams differ (µop %q, reference %q)",
					sm, phys, fast.streams.stream(sm, phys), slow.streams.stream(sm, phys))
			}
		}
	}
	if !reflect.DeepEqual(fast.live, slow.live) {
		t.Error("ace.Liveness recorded from the µop core differs from the reference core's")
	}
	if !reflect.DeepEqual(fast.tracker, slow.tracker) {
		t.Error("ace.Tracker recorded from the µop core differs from the reference core's")
	}
	return fast
}

// TestTraceParityAllApps: every parity job (11 apps plain and TMR, one
// selective subset).
func TestTraceParityAllApps(t *testing.T) {
	for _, pj := range parityJobs(t) {
		t.Run(pj.name, func(t *testing.T) {
			tr := checkTraceParity(t, pj.build, 0, false)
			if tr.res.Err != nil || tr.res.TimedOut || tr.streams.events == 0 {
				t.Fatalf("traced run unusable: err=%v timeout=%v events=%d", tr.res.Err, tr.res.TimedOut, tr.streams.events)
			}
		})
	}
}

// TestTraceParityFuzz: generated programs from the FuzzUOpParity generator,
// which write RZ, guard with @!PT, diverge, deadlock barriers into the
// timeout and fault on wild addresses.
func TestTraceParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	faulted, timedOut := 0, 0
	for seed := 0; seed < 48; seed++ {
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		prog := fuzzprog.Program(data)
		tr := checkTraceParity(t, func() *device.Job { return fuzzprog.Job(prog) }, 20000, true)
		if tr.res.Err != nil {
			faulted++
		}
		if tr.res.TimedOut {
			timedOut++
		}
	}
	t.Logf("48 programs: %d faulted, %d timed out", faulted, timedOut)
	if faulted < 8 || faulted > 40 {
		t.Errorf("%d of 48 generated programs faulted: the seeds no longer cover both faulting and completing runs", faulted)
	}
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

const p0 = isa.PT + 1

// TestTraceParityShapes pins the event order itself, not only that the two
// cores agree on it: a read-then-write of one register in one cycle, SEL on
// both predicate values, ops whose write is dropped into RZ (they still read
// their sources), and a guarded-off lane (it touches nothing).
func TestTraceParityShapes(t *testing.T) {
	prog := &isa.Program{Name: "shapes", NumRegs: 8, Code: []isa.Instr{
		0:  {Op: isa.OpS2R, Dst: 0, Special: isa.SRLaneID},
		1:  {Op: isa.OpMOVI, Dst: 1, Imm: 5},
		2:  {Op: isa.OpMOVI, Dst: 2, Imm: 7},
		3:  {Op: isa.OpIADD, Dst: 1, SrcA: 1, SrcB: 2},
		4:  {Op: isa.OpISETP, PDst: p0, Cmp: isa.CmpLT, SrcA: 0, BImm: true, Imm: 16},
		5:  {Op: isa.OpSEL, Dst: 3, SrcA: 1, SrcB: 2, SelPred: p0},
		6:  {Op: isa.OpSEL, Dst: 4, SrcA: 1, SrcB: 2, SelPred: p0, SelPredNeg: true},
		7:  {Op: isa.OpIADD, Dst: isa.RZ, SrcA: 1, SrcB: 2},
		8:  {Op: isa.OpSEL, Dst: isa.RZ, SrcA: 1, SrcB: 2, SelPred: p0},
		9:  {Op: isa.OpMOV, Dst: 5, SrcA: 3, Pred: p0},
		10: {Op: isa.OpEXIT},
	}}
	tr := checkTraceParity(t, func() *device.Job { return oneWarpJob(prog, 256) }, 0, true)
	if tr.res.Err != nil || tr.res.TimedOut {
		t.Fatalf("run failed: %v timeout=%v", tr.res.Err, tr.res.TimedOut)
	}
	// Streams per register R0..R5; P0 holds on lanes below 16.
	want := map[int][]string{
		0:  {"AWRF", "AWRWRRRF", "AWRRRF", "AWRF", "AWF", "AWF"},
		16: {"AWRF", "AWRWRRF", "AWRRRRF", "AWF", "AWF", "AF"},
	}
	for lane, regs := range want {
		for r, w := range regs {
			if got := tr.streams.stream(0, lane*prog.NumRegs+r); got != w {
				t.Errorf("lane %d R%d: events %q, want %q", lane, r, got, w)
			}
		}
	}
}

// TestTraceParityMidInstructionFault: a load whose 17th lane leaves the
// buffer. Lanes before it have read their address and written their
// destination, the faulting lane has read but not written, later lanes
// report nothing — on both cores.
func TestTraceParityMidInstructionFault(t *testing.T) {
	prog := &isa.Program{Name: "midfault", NumRegs: 4, Code: []isa.Instr{
		{Op: isa.OpS2R, Dst: 0, Special: isa.SRTidX},
		{Op: isa.OpLDC, Dst: 1, Imm: 0},
		{Op: isa.OpISCADD, Dst: 2, SrcA: 0, SrcB: 1, Imm2: 7}, // buf + 128*tid
		{Op: isa.OpLDG, Dst: 3, SrcA: 2},
		{Op: isa.OpEXIT},
	}}
	tr := checkTraceParity(t, func() *device.Job { return oneWarpJob(prog, 16*128) }, 0, true)
	if tr.res.Err == nil {
		t.Fatal("the out-of-bounds load did not fault")
	}
	for lane, want := range map[int][2]string{15: {"AWR", "AW"}, 16: {"AWR", "A"}, 17: {"AW", "A"}} {
		for i, r := range []int{2, 3} {
			if got := tr.streams.stream(0, lane*prog.NumRegs+r); got != want[i] {
				t.Errorf("lane %d R%d: events %q, want %q", lane, r, got, want[i])
			}
		}
	}
}
