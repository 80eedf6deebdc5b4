package ace

import (
	"testing"

	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// eventProg gives each register event of the tests below an instruction:
// R0 and R1 are written, read, or read then overwritten in one instruction.
var eventProg = &isa.Program{Name: "events", NumRegs: 2, Code: []isa.Instr{
	wR0:  {Op: isa.OpMOVI, Dst: 0, Imm: 1},
	rR0:  {Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 0, BImm: true},
	wR1:  {Op: isa.OpMOVI, Dst: 1, Imm: 1},
	rwR1: {Op: isa.OpIADD, Dst: 1, SrcA: 1, SrcB: 1},
}}

const (
	wR0 = iota
	rR0
	wR1
	rwR1
)

// events drives a flow.Recorder by hand: one single-thread CTA (schedule id
// 0) on SM 0 at register base 0, placed and retired at the given cycles,
// issuing eventProg's instructions at theirs (issues[i] = {pc, cycle}). It
// returns the register-file view of the finished map.
func events(place, retire int64, issues ...[2]int64) *Liveness {
	rec := flow.NewRecorder()
	rec.OnCTAPlace(0, 0, 0, eventProg.NumRegs, 0, 0, 1, eventProg, place)
	for _, is := range issues {
		rec.OnIssue(0, 0, int(is[0]), 1, 0, is[1])
	}
	rec.OnCTARetire(0, retire)
	return &Liveness{rec.Finalize(retire)}
}

// TestLivenessIntervals checks the injection-visibility semantics: a flip at
// cycle c is live iff the first register event at cycle >= c is a read.
func TestLivenessIntervals(t *testing.T) {
	l := events(2, 20, [2]int64{wR0, 5}, [2]int64{rR0, 7}, [2]int64{rR0, 9}, [2]int64{wR0, 12})
	cases := []struct {
		cycle int64
		live  bool
	}{
		{3, false},  // allocated, unwritten, never read before the write at 5
		{5, false},  // the write at 5 overwrites the flip before any read
		{6, true},   // consumed by the read at 7
		{7, true},   // hook fires before cycle-7 execution: read sees the flip
		{9, true},   // last read of the value
		{10, false}, // overwritten at 12 before any read
		{12, false},
		{15, false}, // value written at 12 is never read: dead until release
		{20, false},
	}
	for _, c := range cases {
		if got := l.LiveRF(0, 0, c.cycle); got != c.live {
			t.Errorf("LiveRF(cycle=%d) = %v, want %v", c.cycle, got, c.live)
		}
	}
}

// TestLivenessSameCycleOrder: event order within a cycle decides — a read
// issued after a same-cycle write consumes the new value, not the flip; an
// instruction that reads a register before overwriting it still exposes the
// old value.
func TestLivenessSameCycleOrder(t *testing.T) {
	// R0: W(5) then R(5) — the read sees the freshly written value.
	// R1: W(3), then R and W by one instruction at 5.
	l := events(0, 20, [2]int64{wR1, 3}, [2]int64{wR0, 5}, [2]int64{rR0, 5}, [2]int64{rwR1, 5})
	if l.LiveRF(0, 0, 5) {
		t.Error("flip at 5 is overwritten by the same-cycle write before the read")
	}
	if !l.LiveRF(0, 1, 5) {
		t.Error("flip at 5 reaches the read of the pre-overwrite value")
	}
	if l.LiveRF(0, 1, 6) {
		t.Error("value written at 5 is never read")
	}
}

// TestLivenessUninitializedRead: a register read before ever being written
// (garbage read) still exposes flips — liveness may not assume a write.
func TestLivenessUninitializedRead(t *testing.T) {
	l := events(2, 20, [2]int64{rR0, 6})
	if !l.LiveRF(0, 0, 4) {
		t.Error("flip before an uninitialized read must be live")
	}
	if l.LiveRF(0, 0, 2) {
		t.Error("flip at the allocation cycle predates the block's visibility")
	}
}

// TestRFBlocksAt reconstructs the allocated-block list the injector would
// enumerate, in CTA placement order, across alloc/release/realloc.
func TestRFBlocksAt(t *testing.T) {
	rec := flow.NewRecorder()
	rec.OnCTAPlace(0, 0, 0, 64, 0, 0, 1, eventProg, 2)
	rec.OnCTAPlace(1, 0, 64, 32, 0, 0, 1, eventProg, 4)
	rec.OnCTARetire(0, 9)
	rec.OnCTAPlace(2, 0, 0, 16, 0, 0, 1, eventProg, 12) // base 0 reused by a later CTA
	l := &Liveness{rec.Finalize(20)}

	at := func(c int64) []flow.Blk { return l.RFBlocksAt(0, c, nil) }
	if got := at(2); len(got) != 0 {
		t.Errorf("blocks at alloc cycle = %v, want none (visible from the next cycle)", got)
	}
	if got := at(3); len(got) != 1 || got[0] != (flow.Blk{Base: 0, Size: 64}) {
		t.Errorf("blocks at 3 = %v", got)
	}
	if got := at(9); len(got) != 2 {
		t.Errorf("blocks at release cycle = %v, want both (hook fires before retire)", got)
	}
	if got := at(10); len(got) != 1 || got[0] != (flow.Blk{Base: 64, Size: 32}) {
		t.Errorf("blocks at 10 = %v", got)
	}
	if got := at(13); len(got) != 2 || got[0].Base != 64 || got[1] != (flow.Blk{Base: 0, Size: 16}) {
		t.Errorf("blocks after realloc = %v, want placement order [64, 0]", got)
	}
}

// TestTraceRFSmoke: tracing a real benchmark terminates, observes activity,
// and its summed live cycles are the ACE cycles AnalyzeRF reports — one
// record serves both.
func TestTraceRFSmoke(t *testing.T) {
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.Volta()
	job := app.Build()
	l, err := TraceRF(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Cycles <= 0 {
		t.Fatalf("traced run reported %d cycles", l.Cycles)
	}
	live := l.RFLiveCycles()
	if live <= 0 {
		t.Fatal("no live intervals recorded")
	}
	res, err := AnalyzeRF(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live != res.ACECycles || l.Cycles != res.Cycles {
		t.Errorf("TraceRF: %d live cycles of %d, AnalyzeRF: %d ACE cycles of %d", live, l.Cycles, res.ACECycles, res.Cycles)
	}
}
