package funcsim

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
)

// The InjectUse traps, one by one. The µop executor serves a use site by
// arithmetic — which instruction's span of reads holds it, then which lane
// and which operand — where the reference simply counts ReadReg calls, so
// every way that arithmetic can go wrong gets a hand-written program whose
// output says which read saw the flip: the expected words below were worked
// out by hand from exec.Step's read order, and every site of every program
// is also run on the reference executor.

// trapJob wraps prog in a one-CTA job: parameter 0 is a 16-word input buffer
// holding 100, 101, ..., parameter 1 a 16-word zeroed output buffer.
func trapJob(prog *isa.Program, threads int) *device.Job {
	m := device.NewMemory(1 << 14)
	in := m.Alloc("in", 64)
	out := m.Alloc("out", 64)
	for i := uint32(0); i < 16; i++ {
		m.PokeU32(in+4*i, 100+i)
	}
	return &device.Job{
		Name: prog.Name, Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: threads, BlockY: 1, SmemBytes: 64,
			Params: []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 64}},
	}
}

// storeAt emits out[tid+word] = v for every active thread: ISCADD (reads tid,
// then out) and STG (reads the address, then v) — four uses per lane.
func storeAt(b *kasm.Builder, tid, out, v isa.Reg, word int32) {
	b.Stg(b.IScAdd(tid, out, 2), 4*word, v)
}

func f32(f float32) uint32 { return math.Float32bits(f) }

type useTrap struct {
	name    string
	threads int
	build   func(b *kasm.Builder)
	golden  []uint32 // leading output words of the fault-free run
	uses    int64    // its use candidates
	hits    []useHit
}

// useHit is one injection: the site, the bit, and the leading output words
// (or the fault) it must produce.
type useHit struct {
	site int64
	bit  uint8
	want []uint32
	err  string
}

func useTraps() []useTrap {
	return []useTrap{
		{
			// A read by an op whose destination is RZ lowers to KDrop, which
			// has no handler; the instruction still reads its operands, so
			// the two sites exist, are invisible, and the next instruction's
			// reads are numbered after them.
			name: "dropped-op-still-reads", threads: 1,
			build: func(b *kasm.Builder) {
				x, y := b.MovI(5), b.MovI(6)
				b.IAddTo(isa.RZ, x, y) // uses 0, 1
				z := b.IAdd(x, y)      // uses 2, 3
				storeAt(b, b.S2R(isa.SRTidX), b.Param(1), z, 0)
			},
			golden: []uint32{11}, uses: 8,
			hits: []useHit{
				{site: 0, bit: 3, want: []uint32{11}},
				{site: 1, bit: 3, want: []uint32{11}},
				{site: 2, bit: 3, want: []uint32{(5 ^ 8) + 6}},
				{site: 3, bit: 3, want: []uint32{5 + (6 ^ 8)}},
			},
		},
		{
			// SEL reads only the side its predicate picks: lane 0 (P true)
			// has one site on A, lane 1 one site on B, and neither lane has
			// a site on the other side.
			name: "sel-reads-the-chosen-side", threads: 2,
			build: func(b *kasm.Builder) {
				tid := b.S2R(isa.SRTidX)
				p := b.P()
				b.ISetpI(p, isa.CmpEQ, tid, 0) // uses 0, 1
				x, y := b.MovI(0x10), b.MovI(0x20)
				v := b.Sel(p, x, y) // lane 0: use 2 (x); lane 1: use 3 (y)
				b.FreeP(p)
				storeAt(b, tid, b.Param(1), v, 0) // uses 4..11
			},
			golden: []uint32{0x10, 0x20}, uses: 12,
			hits: []useHit{
				{site: 2, bit: 0, want: []uint32{0x11, 0x20}},
				{site: 3, bit: 0, want: []uint32{0x10, 0x21}},
				{site: 4, bit: 0, want: []uint32{0, 0x20}}, // lane 0's tid in the ISCADD: it stores to word 1, then lane 1 does
			},
		},
		{
			// A SEL with an immediate B has a site only in the lanes that
			// pick A, and a SEL into RZ (KDrop) still has its sites.
			name: "sel-immediate-and-dropped", threads: 2,
			build: func(b *kasm.Builder) {
				tid := b.S2R(isa.SRTidX)
				p := b.P()
				b.ISetpI(p, isa.CmpEQ, tid, 1) // uses 0, 1
				x, y := b.MovI(0x10), b.MovI(0x20)
				v := b.R()
				b.Emit(isa.Instr{Op: isa.OpSEL, Dst: v, SrcA: x, BImm: true, Imm: 0x40, SelPred: p}) // lane 1: use 2
				b.SelTo(isa.RZ, p, x, y)                                                             // lane 0: use 3 (y); lane 1: use 4 (x)
				b.FreeP(p)
				storeAt(b, tid, b.Param(1), v, 0) // uses 5..12
			},
			golden: []uint32{0x40, 0x10}, uses: 13,
			hits: []useHit{
				{site: 2, bit: 1, want: []uint32{0x40, 0x12}},
				{site: 3, bit: 1, want: []uint32{0x40, 0x10}},
				{site: 4, bit: 1, want: []uint32{0x40, 0x10}},
				{site: 5, bit: 0, want: []uint32{0, 0x10}}, // lane 0's tid in the ISCADD: both lanes store to word 1
			},
		},
		{
			// FFMA reads its addend first: C, then A, then B.
			name: "ffma-reads-c-a-b", threads: 1,
			build: func(b *kasm.Builder) {
				x, y, z := b.MovF(2), b.MovF(3), b.MovF(1)
				v := b.FFma(x, y, z) // uses 0 (z), 1 (x), 2 (y)
				storeAt(b, b.S2R(isa.SRTidX), b.Param(1), v, 0)
			},
			golden: []uint32{f32(7)}, uses: 7,
			hits: []useHit{ // bit 22 turns 1 into 1.5, 2 into 3, 3 into 2
				{site: 0, bit: 22, want: []uint32{f32(7.5)}},
				{site: 1, bit: 22, want: []uint32{f32(10)}},
				{site: 2, bit: 22, want: []uint32{f32(5)}},
			},
		},
		{
			// With an immediate B, FFMA and IMAD read two registers: C, A
			// and A, C.
			name: "three-operand-immediates", threads: 1,
			build: func(b *kasm.Builder) {
				x, z := b.MovF(2), b.MovF(1)
				v := b.R()
				b.Emit(isa.Instr{Op: isa.OpFFMA, Dst: v, SrcA: x, BImm: true, Imm: int32(f32(3)), SrcC: z}) // uses 0 (z), 1 (x)
				i, k := b.MovI(4), b.MovI(1)
				w := b.R()
				b.Emit(isa.Instr{Op: isa.OpIMAD, Dst: w, SrcA: i, BImm: true, Imm: 10, SrcC: k}) // uses 2 (i), 3 (k)
				tid, out := b.S2R(isa.SRTidX), b.Param(1)
				storeAt(b, tid, out, v, 0)
				storeAt(b, tid, out, w, 1)
			},
			golden: []uint32{f32(7), 41}, uses: 12,
			hits: []useHit{
				{site: 0, bit: 22, want: []uint32{f32(7.5), 41}},
				{site: 1, bit: 22, want: []uint32{f32(10), 41}},
				{site: 2, bit: 0, want: []uint32{f32(7), 51}},
				{site: 3, bit: 1, want: []uint32{f32(7), 43}},
			},
		},
		{
			// One register named twice: exactly one of the two reads sees
			// the flip (7+5, not 7+7), and the register itself is unchanged
			// afterwards.
			name: "same-register-twice", threads: 1,
			build: func(b *kasm.Builder) {
				x := b.MovI(5)
				v := b.IAdd(x, x) // uses 0, 1
				tid, out := b.S2R(isa.SRTidX), b.Param(1)
				storeAt(b, tid, out, v, 0)
				storeAt(b, tid, out, x, 1)
			},
			golden: []uint32{10, 5}, uses: 10,
			hits: []useHit{
				{site: 0, bit: 1, want: []uint32{12, 5}},
				{site: 1, bit: 1, want: []uint32{12, 5}},
				{site: 9, bit: 1, want: []uint32{10, 7}}, // the value read of the last STG: stored flipped, nothing else
			},
		},
		{
			// The address read of an LDG and both reads of an STG.
			name: "load-address-store-value", threads: 1,
			build: func(b *kasm.Builder) {
				in, out := b.Param(0), b.Param(1)
				v := b.Ldg(in, 0) // use 0
				b.Stg(out, 0, v)  // uses 1 (address), 2 (value)
			},
			golden: []uint32{100, 0}, uses: 3,
			hits: []useHit{
				{site: 0, bit: 2, want: []uint32{101, 0}},
				{site: 0, bit: 31, err: "illegal global memory read at 0x"},
				{site: 0, bit: 0, err: "illegal global memory read at 0x"},
				{site: 1, bit: 2, want: []uint32{0, 100}},
				{site: 1, bit: 31, err: "illegal global memory write at 0x"},
				{site: 2, bit: 4, want: []uint32{100 ^ 16, 0}},
			},
		},
		{
			// Shared memory: the flipped address of an STS or LDS reaches
			// this CTA's shared memory, and out of its bounds it faults.
			name: "shared-memory-addresses", threads: 1,
			build: func(b *kasm.Builder) {
				zero, four, x := b.MovI(0), b.MovI(4), b.MovI(9)
				b.Sts(zero, 0, x)   // uses 0 (address), 1 (value)
				v := b.Lds(zero, 0) // use 2
				w := b.Lds(four, 0) // use 3
				out := b.Param(1)
				b.Stg(out, 0, v) // uses 4, 5
				b.Stg(out, 4, w) // uses 6, 7
			},
			golden: []uint32{9, 0}, uses: 8,
			hits: []useHit{
				{site: 0, bit: 2, want: []uint32{0, 9}},
				{site: 1, bit: 1, want: []uint32{11, 0}},
				{site: 2, bit: 2, want: []uint32{0, 0}},
				{site: 3, bit: 2, want: []uint32{9, 9}},
				{site: 2, bit: 20, err: "illegal shared memory read at 0x100000"},
				{site: 0, bit: 1, err: "illegal shared memory write at 0x2"},
			},
		},
		{
			// A lane the guard turns off reads nothing: the guarded IADD
			// has sites for lanes 1 and 3 only.
			name: "guarded-off-lanes", threads: 4,
			build: func(b *kasm.Builder) {
				tid := b.S2R(isa.SRTidX)
				odd := b.AndI(tid, 1) // uses 0..3
				p := b.P()
				b.ISetpI(p, isa.CmpNE, odd, 0) // uses 4..7
				v := b.MovI(1)
				b.Guarded(p, false, func() { b.IAddTo(v, v, tid) }) // lane 1: uses 8, 9; lane 3: uses 10, 11
				b.FreeP(p)
				storeAt(b, tid, b.Param(1), v, 0) // uses 12..27
			},
			golden: []uint32{1, 2, 1, 4}, uses: 28,
			hits: []useHit{
				{site: 8, bit: 4, want: []uint32{1, 18, 1, 4}},
				{site: 9, bit: 4, want: []uint32{1, 18, 1, 4}},
				{site: 10, bit: 4, want: []uint32{1, 2, 1, 20}},
				{site: 11, bit: 4, want: []uint32{1, 2, 1, 20}},
				{site: 12, bit: 1, want: []uint32{0, 2, 1, 4}}, // lane 0's tid in the ISCADD: its 1 goes to word 2, where lane 2 stores 1 too
			},
		},
		{
			// 33 threads: the second warp has one lane. Warp 0 runs to its
			// exit first, so warp 1's sites are numbered after all of warp
			// 0's, and only threads 31 and 32 store (words 0 and 1).
			name: "partial-warp", threads: 33,
			build: func(b *kasm.Builder) {
				tid := b.S2R(isa.SRTidX)
				v := b.IAddI(tid, 7) // warp 0: uses 0..31; warp 1: use 69
				p := b.P()
				b.ISetpI(p, isa.CmpGE, tid, 31) // warp 0: uses 32..63; warp 1: use 70
				b.If(p, false, func() {
					slot := b.IAddI(tid, -31)          // warp 0, lane 31: use 64; warp 1: use 71
					storeAt(b, slot, b.Param(1), v, 0) // warp 0: uses 65..68; warp 1: uses 72..75
				})
				b.FreeP(p)
			},
			golden: []uint32{38, 39}, uses: 76,
			hits: []useHit{
				{site: 30, bit: 3, want: []uint32{38, 39}}, // lane 30 stores nothing
				{site: 31, bit: 3, want: []uint32{(31 ^ 8) + 7, 39}},
				{site: 68, bit: 0, want: []uint32{39, 39}}, // warp 0's last read: the value lane 31 stores
				{site: 69, bit: 3, want: []uint32{38, (32 ^ 8) + 7}},
				{site: 75, bit: 0, want: []uint32{38, 38}},
			},
		},
		{
			// Two neighbouring sites on either side of an instruction
			// boundary: the last lane's last read of one warp-instruction,
			// then the first lane's first read of the next.
			name: "last-lane-then-first-lane", threads: 3,
			build: func(b *kasm.Builder) {
				tid := b.S2R(isa.SRTidX)
				x := b.IAddI(tid, 1) // uses 0..2
				y := b.IAdd(x, tid)  // uses 3..8: lane 2 reads x at 7, tid at 8
				z := b.IAdd(y, x)    // uses 9..14: lane 0 reads y at 9
				storeAt(b, tid, b.Param(1), z, 0)
			},
			golden: []uint32{2, 5, 8}, uses: 27,
			hits: []useHit{
				{site: 8, bit: 4, want: []uint32{2, 5, 8 + 16}},
				{site: 9, bit: 4, want: []uint32{2 + 16, 5, 8}},
			},
		},
	}
}

func words(b []byte, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func TestInjectUseTraps(t *testing.T) {
	for _, c := range useTraps() {
		t.Run(c.name, func(t *testing.T) {
			b := kasm.New(c.name)
			c.build(b)
			job := trapJob(b.MustBuild(), c.threads)
			g, ref := onBoth(func() *Result { return Run(job, Options{Record: true}) })
			sameRecord(t, "golden", g, ref)
			if g.Err != nil {
				t.Fatalf("golden run: %v", g.Err)
			}
			if got := words(g.Output, len(c.golden)); !slices.Equal(got, c.golden) || g.UseCands != c.uses {
				t.Fatalf("golden run: output %#x with %d use candidates, want %#x with %d", got, g.UseCands, c.golden, c.uses)
			}
			for _, h := range c.hits {
				inj := &Injection{Mode: InjectUse, Index: h.site, Bit: h.bit}
				r := Run(job, Options{Inject: inj})
				switch {
				case h.err != "":
					if r.Err == nil || !strings.HasPrefix(r.Err.Error(), h.err) {
						t.Errorf("site %d bit %d: err %v, want %q…", h.site, h.bit, r.Err, h.err)
					}
				case r.Err != nil:
					t.Errorf("site %d bit %d: %v", h.site, h.bit, r.Err)
				default:
					if got := words(r.Output, len(h.want)); !slices.Equal(got, h.want) {
						t.Errorf("site %d bit %d: output %#x, want %#x", h.site, h.bit, got, h.want)
					}
				}
			}
			// every site, two bits, from the start (also traced: the events
			// see the flipped read) and forked: the reference executor must
			// say the same
			for site := int64(0); site < g.UseCands; site++ {
				for _, bit := range []uint8{1, 30} {
					inj := Injection{Mode: InjectUse, Index: site, Bit: bit}
					opts := Options{Inject: &inj, MaxDynInstrs: 10 * g.DynInstrs}
					got, want := onBoth(func() *Result { return Run(job, opts) })
					sameOutcome(t, "from the start", got, want)
					sameTrace(t, "from the start", job, opts)
					opts.Resume, opts.ResumeAt = g.Checkpoints, g.Checkpoints.ForkPoint(inj)
					got, want = onBoth(func() *Result { return Run(job, opts) })
					sameOutcome(t, "forked", got, want)
				}
			}
			sameTrace(t, c.name, job, Options{})
		})
	}
}
