package exec

import (
	"math"
	"testing"
	"testing/quick"

	"gpurel/internal/isa"
)

// testEnv is a minimal Env for semantic tests: 32 lanes × registers, flat
// global and shared memory.
type testEnv struct {
	regs   [32][64]uint32
	preds  [32][8]bool
	global map[uint32]uint32
	shared map[uint32]uint32
	params []uint32
}

func newTestEnv() *testEnv {
	return &testEnv{global: map[uint32]uint32{}, shared: map[uint32]uint32{}}
}

func (e *testEnv) ReadReg(l int, r isa.Reg) uint32     { return e.regs[l][r] }
func (e *testEnv) WriteReg(l int, r isa.Reg, v uint32) { e.regs[l][r] = v }
func (e *testEnv) ReadPred(l int, p isa.Pred) bool     { return e.preds[l][p] }
func (e *testEnv) WritePred(l int, p isa.Pred, v bool) { e.preds[l][p] = v }
func (e *testEnv) Special(l int, s isa.SReg) uint32 {
	if s == isa.SRTidX {
		return uint32(l)
	}
	return 0
}
func (e *testEnv) Param(i int) uint32 {
	if i < len(e.params) {
		return e.params[i]
	}
	return 0
}
func (e *testEnv) LoadGlobal(l int, a uint32, tex bool) (uint32, error) { return e.global[a], nil }
func (e *testEnv) StoreGlobal(l int, a uint32, v uint32) error {
	e.global[a] = v
	return nil
}
func (e *testEnv) LoadShared(l int, a uint32) (uint32, error) { return e.shared[a], nil }
func (e *testEnv) StoreShared(l int, a uint32, v uint32) error {
	e.shared[a] = v
	return nil
}

// run executes a program to completion on a fresh warp.
func run(t *testing.T, code []isa.Instr, env *testEnv, lanes int) *Warp {
	t.Helper()
	prog := &isa.Program{Name: "t", Code: code, NumRegs: 64}
	w := NewWarp(lanes)
	for i := 0; i < 10000; i++ {
		info := Step(w, prog, env)
		switch info.Kind {
		case StepExit:
			return w
		case StepFault:
			t.Fatalf("unexpected fault: %v", info.Fault)
		case StepBarrier:
			w.Advance()
		}
	}
	t.Fatalf("program did not terminate")
	return nil
}

func f32(bits uint32) float32 { return math.Float32frombits(bits) }
func bits(f float32) uint32   { return math.Float32bits(f) }

func TestALUSemantics(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(int32(l - 16)) // signed values around zero
		env.regs[l][2] = 3
	}
	code := []isa.Instr{
		{Op: isa.OpIADD, Dst: 10, SrcA: 1, SrcB: 2},
		{Op: isa.OpISUB, Dst: 11, SrcA: 1, SrcB: 2},
		{Op: isa.OpIMUL, Dst: 12, SrcA: 1, SrcB: 2},
		{Op: isa.OpIMAD, Dst: 13, SrcA: 1, SrcB: 2, SrcC: 10},
		{Op: isa.OpISCADD, Dst: 14, SrcA: 1, SrcB: 2, Imm2: 4},
		{Op: isa.OpIMIN, Dst: 15, SrcA: 1, SrcB: 2},
		{Op: isa.OpIMAX, Dst: 16, SrcA: 1, SrcB: 2},
		{Op: isa.OpAND, Dst: 17, SrcA: 1, BImm: true, Imm: 0xFF},
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		v := int32(l - 16)
		checks := []struct {
			reg  isa.Reg
			want int32
		}{
			{10, v + 3}, {11, v - 3}, {12, v * 3}, {13, v*3 + v + 3},
			{14, v<<4 + 3}, {15, min(v, 3)}, {16, max(v, 3)}, {17, v & 0xFF},
		}
		for _, c := range checks {
			if got := int32(env.regs[l][c.reg]); got != c.want {
				t.Errorf("lane %d R%d = %d, want %d", l, c.reg, got, c.want)
			}
		}
	}
}

func TestFloatSemantics(t *testing.T) {
	env := newTestEnv()
	env.regs[0][1] = bits(2.5)
	env.regs[0][2] = bits(4.0)
	env.regs[0][3] = bits(-1.5)
	code := []isa.Instr{
		{Op: isa.OpFADD, Dst: 10, SrcA: 1, SrcB: 2},
		{Op: isa.OpFMUL, Dst: 11, SrcA: 1, SrcB: 2},
		{Op: isa.OpFFMA, Dst: 12, SrcA: 1, SrcB: 2, SrcC: 3},
		{Op: isa.OpFMIN, Dst: 13, SrcA: 1, SrcB: 3},
		{Op: isa.OpFMAX, Dst: 14, SrcA: 1, SrcB: 3},
		{Op: isa.OpMUFU, Dst: 15, SrcA: 2, Mufu: isa.MufuSQRT},
		{Op: isa.OpMUFU, Dst: 16, SrcA: 2, Mufu: isa.MufuRCP},
		{Op: isa.OpI2F, Dst: 17, SrcA: 18},
		{Op: isa.OpEXIT},
	}
	neg7 := int32(-7)
	env.regs[0][18] = uint32(neg7)
	run(t, code, env, 1)
	cases := []struct {
		reg  isa.Reg
		want float32
	}{
		{10, 6.5}, {11, 10}, {12, 2.5*4 - 1.5}, {13, -1.5}, {14, 2.5},
		{15, 2}, {16, 0.25}, {17, -7},
	}
	for _, c := range cases {
		if got := f32(env.regs[0][c.reg]); got != c.want {
			t.Errorf("R%d = %v, want %v", c.reg, got, c.want)
		}
	}
}

func TestF2ISaturation(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{1.9, 1}, {-1.9, -1}, {0, 0},
		{float32(math.Inf(1)), math.MaxInt32},
		{float32(math.Inf(-1)), math.MinInt32},
		{float32(math.NaN()), 0},
		{3e9, math.MaxInt32},
		{-3e9, math.MinInt32},
	}
	for _, c := range cases {
		if got := F32I(c.in); got != c.want {
			t.Errorf("F32I(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// property: F32I never panics and stays in int32 range for any input
	if err := quick.Check(func(b uint32) bool {
		_ = F32I(math.Float32frombits(b))
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPredicatesAndSel(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(l)
	}
	code := []isa.Instr{
		// P0 = tid < 10
		{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, BImm: true, Imm: 10, CPred: isa.PT},
		// R2 = P0 ? 111 : 222 via SEL of two immediates materialised first
		{Op: isa.OpMOVI, Dst: 3, Imm: 111},
		{Op: isa.OpMOVI, Dst: 4, Imm: 222},
		{Op: isa.OpSEL, Dst: 2, SrcA: 3, SrcB: 4, SelPred: isa.P0},
		// guarded move: @!P0 R5 = 7
		{Op: isa.OpMOVI, Dst: 5, Imm: 7, Pred: isa.P0, PredNeg: true},
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		want := uint32(222)
		if l < 10 {
			want = 111
		}
		if env.regs[l][2] != want {
			t.Errorf("lane %d SEL = %d, want %d", l, env.regs[l][2], want)
		}
		wantR5 := uint32(0)
		if l >= 10 {
			wantR5 = 7
		}
		if env.regs[l][5] != wantR5 {
			t.Errorf("lane %d guarded mov = %d, want %d", l, env.regs[l][5], wantR5)
		}
	}
}

func TestFCmpNaN(t *testing.T) {
	nan := float32(math.NaN())
	if FCmp(isa.CmpLT, nan, 1) || FCmp(isa.CmpEQ, nan, nan) || FCmp(isa.CmpGE, nan, 0) {
		t.Error("ordered comparisons with NaN must be false")
	}
	if !FCmp(isa.CmpNE, nan, nan) {
		t.Error("NE with NaN must be true")
	}
}

// TestDivergence: lanes < 16 take the then-branch, others the else-branch;
// both must execute and reconverge.
func TestDivergence(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(l)
	}
	code := []isa.Instr{
		/*0*/ {Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, BImm: true, Imm: 16, CPred: isa.PT},
		/*1*/ {Op: isa.OpBRA, Pred: isa.P0, PredNeg: true, Target: 4, Reconv: 5}, // @!P0 → else
		/*2*/ {Op: isa.OpMOVI, Dst: 2, Imm: 100},
		/*3*/ {Op: isa.OpBRA, Pred: isa.PT, Target: 5, Reconv: 5},
		/*4*/ {Op: isa.OpMOVI, Dst: 2, Imm: 200},
		/*5*/ {Op: isa.OpIADD, Dst: 3, SrcA: 2, BImm: true, Imm: 1}, // after reconvergence
		/*6*/ {Op: isa.OpEXIT},
	}
	run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		want := uint32(201)
		if l < 16 {
			want = 101
		}
		if env.regs[l][3] != want {
			t.Errorf("lane %d R3 = %d, want %d", l, env.regs[l][3], want)
		}
	}
}

// TestDivergentLoop: each lane loops tid times; the total work must match
// Σ tid and the stack must fully unwind.
func TestDivergentLoop(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(l) // trip count
	}
	code := []isa.Instr{
		/*0*/ {Op: isa.OpMOVI, Dst: 2, Imm: 0}, // i
		/*1*/ {Op: isa.OpMOVI, Dst: 3, Imm: 0}, // acc
		/*2*/ {Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 2, SrcB: 1, CPred: isa.PT},
		/*3*/ {Op: isa.OpBRA, Pred: isa.P0, PredNeg: true, Target: 7, Reconv: 7},
		/*4*/ {Op: isa.OpIADD, Dst: 3, SrcA: 3, BImm: true, Imm: 5},
		/*5*/ {Op: isa.OpIADD, Dst: 2, SrcA: 2, BImm: true, Imm: 1},
		/*6*/ {Op: isa.OpBRA, Pred: isa.PT, Target: 2, Reconv: 7},
		/*7*/ {Op: isa.OpEXIT},
	}
	w := run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		if got := env.regs[l][3]; got != uint32(5*l) {
			t.Errorf("lane %d acc = %d, want %d", l, got, 5*l)
		}
	}
	if len(w.Stack) != 0 && !(len(w.Stack) >= 0 && w.Done()) {
		t.Errorf("warp did not finish cleanly")
	}
}

// TestEXITUnderDivergence: some lanes exit early inside a branch; the rest
// must continue and complete.
func TestEXITUnderDivergence(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(l)
	}
	code := []isa.Instr{
		/*0*/ {Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpGE, SrcA: 1, BImm: true, Imm: 20, CPred: isa.PT},
		/*1*/ {Op: isa.OpBRA, Pred: isa.P0, PredNeg: true, Target: 3, Reconv: 3}, // skip exit
		/*2*/ {Op: isa.OpEXIT}, // lanes >= 20 exit here
		/*3*/ {Op: isa.OpMOVI, Dst: 2, Imm: 42},
		/*4*/ {Op: isa.OpEXIT},
	}
	run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		want := uint32(42)
		if l >= 20 {
			want = 0
		}
		if env.regs[l][2] != want {
			t.Errorf("lane %d R2 = %d, want %d", l, env.regs[l][2], want)
		}
	}
}

// TestBarrierDivergenceFault: a BAR reached with a diverged mask is a DUE.
func TestBarrierDivergenceFault(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(l)
	}
	code := []isa.Instr{
		/*0*/ {Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 1, BImm: true, Imm: 16, CPred: isa.PT},
		/*1*/ {Op: isa.OpBRA, Pred: isa.P0, PredNeg: true, Target: 3, Reconv: 4},
		/*2*/ {Op: isa.OpBAR}, // only half the lanes arrive
		/*3*/ {Op: isa.OpMOVI, Dst: 2, Imm: 1},
		/*4*/ {Op: isa.OpEXIT},
	}
	prog := &isa.Program{Name: "t", Code: code, NumRegs: 64}
	w := NewWarp(32)
	for i := 0; i < 100; i++ {
		info := Step(w, prog, env)
		if info.Kind == StepFault {
			if info.Fault != ErrBarrierDivergence {
				t.Fatalf("wrong fault: %v", info.Fault)
			}
			return
		}
		if info.Kind == StepExit {
			t.Fatal("expected a barrier-divergence fault")
		}
		if info.Kind == StepBarrier {
			w.Advance()
		}
	}
	t.Fatal("no fault observed")
}

// TestBadPCFault: branching past the end of the program is a DUE.
func TestBadPCFault(t *testing.T) {
	env := newTestEnv()
	code := []isa.Instr{
		{Op: isa.OpBRA, Pred: isa.PT, Target: 99, Reconv: 99},
		{Op: isa.OpEXIT},
	}
	prog := &isa.Program{Name: "t", Code: code, NumRegs: 4}
	w := NewWarp(4)
	info := Step(w, prog, env)
	if info.Kind != StepOK {
		t.Fatalf("branch step failed: %+v", info)
	}
	info = Step(w, prog, env)
	if info.Kind != StepFault {
		t.Fatalf("expected bad-PC fault, got %+v", info)
	}
}

// TestPartialWarp: a warp with fewer than 32 lanes runs only those lanes.
func TestPartialWarp(t *testing.T) {
	env := newTestEnv()
	code := []isa.Instr{
		{Op: isa.OpMOVI, Dst: 2, Imm: 9},
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 5)
	for l := 0; l < 32; l++ {
		want := uint32(0)
		if l < 5 {
			want = 9
		}
		if env.regs[l][2] != want {
			t.Errorf("lane %d = %d, want %d", l, env.regs[l][2], want)
		}
	}
}

// TestRZSemantics: RZ reads as zero and discards writes.
func TestRZSemantics(t *testing.T) {
	env := newTestEnv()
	env.regs[0][1] = 5
	code := []isa.Instr{
		{Op: isa.OpIADD, Dst: isa.RZ, SrcA: 1, SrcB: 1}, // discarded
		{Op: isa.OpIADD, Dst: 2, SrcA: isa.RZ, SrcB: 1}, // 0 + 5
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 1)
	if env.regs[0][2] != 5 {
		t.Errorf("RZ source: got %d, want 5", env.regs[0][2])
	}
}

// TestShiftMasking: shift amounts are masked to 5 bits like hardware.
func TestShiftMasking(t *testing.T) {
	env := newTestEnv()
	env.regs[0][1] = 1
	code := []isa.Instr{
		{Op: isa.OpSHL, Dst: 2, SrcA: 1, BImm: true, Imm: 33}, // 33&31 = 1
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 1)
	if env.regs[0][2] != 2 {
		t.Errorf("SHL by 33 = %d, want 2 (masked shift)", env.regs[0][2])
	}
}

// TestMemoryOps: loads and stores address R[a]+imm per lane.
func TestMemoryOps(t *testing.T) {
	env := newTestEnv()
	for l := 0; l < 32; l++ {
		env.regs[l][1] = uint32(0x1000 + 4*l)
		env.global[uint32(0x1000+4*l)] = uint32(l * 10)
	}
	code := []isa.Instr{
		{Op: isa.OpLDG, Dst: 2, SrcA: 1},
		{Op: isa.OpIADD, Dst: 2, SrcA: 2, BImm: true, Imm: 1},
		{Op: isa.OpSTG, SrcA: 1, SrcB: 2, Imm: 0x100},
		{Op: isa.OpSTS, SrcA: 1, SrcB: 2},
		{Op: isa.OpLDS, Dst: 3, SrcA: 1},
		{Op: isa.OpEXIT},
	}
	run(t, code, env, 32)
	for l := 0; l < 32; l++ {
		want := uint32(l*10 + 1)
		if got := env.global[uint32(0x1100+4*l)]; got != want {
			t.Errorf("lane %d global store = %d, want %d", l, got, want)
		}
		if got := env.regs[l][3]; got != want {
			t.Errorf("lane %d shared roundtrip = %d, want %d", l, got, want)
		}
	}
}

// TestStackProperty: for random divergence patterns (via per-lane trip
// counts), the loop result must always equal the sequential computation.
func TestStackProperty(t *testing.T) {
	f := func(trips [32]uint8) bool {
		env := newTestEnv()
		for l := 0; l < 32; l++ {
			env.regs[l][1] = uint32(trips[l] % 17)
		}
		code := []isa.Instr{
			{Op: isa.OpMOVI, Dst: 2, Imm: 0},
			{Op: isa.OpMOVI, Dst: 3, Imm: 0},
			{Op: isa.OpISETP, PDst: isa.P0, Cmp: isa.CmpLT, SrcA: 2, SrcB: 1, CPred: isa.PT},
			{Op: isa.OpBRA, Pred: isa.P0, PredNeg: true, Target: 7, Reconv: 7},
			{Op: isa.OpIADD, Dst: 3, SrcA: 3, SrcB: 2},
			{Op: isa.OpIADD, Dst: 2, SrcA: 2, BImm: true, Imm: 1},
			{Op: isa.OpBRA, Pred: isa.PT, Target: 2, Reconv: 7},
			{Op: isa.OpEXIT},
		}
		prog := &isa.Program{Name: "q", Code: code, NumRegs: 8}
		w := NewWarp(32)
		for i := 0; i < 100000; i++ {
			info := Step(w, prog, env)
			if info.Kind == StepExit {
				break
			}
			if info.Kind == StepFault {
				return false
			}
		}
		if !w.Done() {
			return false
		}
		for l := 0; l < 32; l++ {
			n := uint32(trips[l] % 17)
			if env.regs[l][3] != n*(n-1)/2*1 && !(n == 0 && env.regs[l][3] == 0) {
				// Σ_{i<n} i = n(n-1)/2
				if env.regs[l][3] != n*(n-1)/2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
