package funcsim

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
)

// The CTA skip of a resumed injection run (checkpoint.go: probe, skippable,
// skip), held to replays from the start of the job on jobs built so that each
// of its rules decides an outcome.

// auditDiffs checks, until the returned stop is called, every probed
// boundary's diff against a whole-memory word-by-word comparison of the
// run's memory with its shadow; stop returns the number of boundaries
// checked.
func auditDiffs(t *testing.T) (stop func() int) {
	t.Helper()
	var n atomic.Int64
	diffAudit = func(r *runner) {
		n.Add(1)
		cur := r.mem.PeekBytes(0, uint32(r.mem.Size()))
		var want []uint32
		for a := 0; a < len(cur); a += 4 {
			if !bytes.Equal(cur[a:a+4], r.shadow[a:a+4]) {
				want = append(want, uint32(a))
			}
		}
		if !slices.Equal(r.diff, want) {
			t.Errorf("boundary diff holds %d words (%x…), whole memory differs at %d (%x…)",
				len(r.diff), r.diff[:min(len(r.diff), 4)], len(want), want[:min(len(want), 4)])
		}
	}
	return func() int {
		diffAudit = nil
		return int(n.Load())
	}
}

// strideKernel: thread t of CTA c stores 3·v+1, v = src[t·p2 + c·p3], at
// dst[t·p4 + c·p5]; p0 and p1 are the addresses of src and dst.
func strideKernel() *isa.Program {
	b := kasm.New("stride")
	t, c := b.S2R(isa.SRTidX), b.S2R(isa.SRCtaIDX)
	si := b.IMad(t, b.Param(2), b.IMul(c, b.Param(3)))
	di := b.IMad(t, b.Param(4), b.IMul(c, b.Param(5)))
	v := b.Ldg(b.IScAdd(si, b.Param(0), 2), 0)
	b.Stg(b.IScAdd(di, b.Param(1), 2), 0, b.IAddI(b.IMulI(v, 3), 1))
	return b.MustBuild()
}

// strideLaunch is a two-CTA, one-warp-each launch of strideKernel.
func strideLaunch(name string, src, dst uint32, p2, p3, p4, p5 int32) device.Step {
	return device.Step{Launch: &device.Launch{
		Kernel: strideKernel(), KernelName: name,
		GridX: 2, GridY: 1, BlockX: 32, BlockY: 1,
		Params:     []uint32{src, dst, uint32(p2), uint32(p3), uint32(p4), uint32(p5)},
		ParamIsPtr: []bool{true, true, false, false, false, false},
	}}
}

// noHost is a host step that does nothing: the job's last step, which
// always executes, so that the CTA before it can be skipped.
var noHost = device.Step{Host: func(*device.Memory, uint32) int { return -1 }}

// strideJob allocates in (64 words whose bytes are all non-zero) and the
// named 64-word buffers, zeroed, and hands their addresses to steps.
func strideJob(name string, buffers []string, out string, steps func(in uint32, buf map[string]uint32) []device.Step) *device.Job {
	m := device.NewMemory(1 << 16)
	in := m.Alloc("in", 256)
	for i := range 64 {
		m.PokeU32(in+uint32(4*i), 0x11111111*uint32(1+i%15))
	}
	buf := map[string]uint32{}
	for _, b := range buffers {
		buf[b] = m.Alloc(b, 256)
	}
	return &device.Job{Name: name, Mem: m, Steps: steps(in, buf),
		Outputs: []device.Output{{Name: out, Addr: buf[out], Size: 256}}}
}

// againstReplay runs inj forked from its checkpoint, with the join and the
// skip, and replayed from the start of the job, under the same budget, and
// fails unless the two report the same run.
func againstReplay(t *testing.T, job *device.Job, g *Result, inj Injection, budget int64) (forked, replay *Result) {
	t.Helper()
	cps := g.Checkpoints
	forked = Run(job, Options{MaxDynInstrs: budget, Inject: &inj, Resume: cps, ResumeAt: cps.ForkPoint(inj)})
	replay = Run(job, Options{MaxDynInstrs: budget, Inject: &inj})
	name := fmt.Sprintf("%s %+v budget %d", job.Name, inj, budget)
	if errText(forked.Err) != errText(replay.Err) || forked.TimedOut != replay.TimedOut || forked.DUEFlag != replay.DUEFlag ||
		!bytes.Equal(forked.Output, replay.Output) {
		t.Fatalf("%s: forked err %q timeout %v due %v, replay err %q timeout %v due %v, outputs equal %v", name,
			errText(forked.Err), forked.TimedOut, forked.DUEFlag, errText(replay.Err), replay.TimedOut, replay.DUEFlag,
			bytes.Equal(forked.Output, replay.Output))
	}
	// A joined run that times out counts the whole recorded suffix, where
	// the replay stops at the instruction that crossed the budget.
	if !(forked.Joined && forked.TimedOut) && forked.DynInstrs != replay.DynInstrs {
		t.Fatalf("%s: forked %d thread-instructions (%d CTAs skipped), replay %d", name, forked.DynInstrs, forked.Skips, replay.DynInstrs)
	}
	if !forked.Joined && forked.Err == nil && !forked.TimedOut &&
		(forked.DstCands != replay.DstCands || forked.LoadCands != replay.LoadCands || forked.UseCands != replay.UseCands) {
		t.Fatalf("%s: forked candidates %d/%d/%d, replay %d/%d/%d", name,
			forked.DstCands, forked.LoadCands, forked.UseCands, replay.DstCands, replay.LoadCands, replay.UseCands)
	}
	return forked, replay
}

// firstCTASites returns a destination injection at every candidate of the
// job's first CTA, each flipping bit.
func firstCTASites(g *Result, bit uint8) []Injection {
	var out []Injection
	for i := range g.Checkpoints.bounds[1].dst {
		out = append(out, Injection{Mode: InjectDst, Index: i, Bit: bit})
	}
	return out
}

// TestSkipAgainstReplay: each rule of the skip decides the outcome of some
// run of a purpose-built job, and every run equals its replay.
func TestSkipAgainstReplay(t *testing.T) {
	// CTA 0 stores the odd words of x and CTA 1 the even ones, so the log's
	// byte runs for CTA 1 bridge the odd words, which CTA 1 neither reads
	// nor writes: a corrupted odd word must survive the skip of CTA 1.
	t.Run("gap trap", func(t *testing.T) {
		job := strideJob("trap", []string{"x"}, "x", func(in uint32, b map[string]uint32) []device.Step {
			return []device.Step{strideLaunch("K1", in, b["x"]+4, 1, 32, 2, -1), noHost}
		})
		g := Run(job, Options{Record: true})
		cps, x := g.Checkpoints, job.Outputs[0].Addr
		bridged := false
		for _, w := range cps.writes[cps.bounds[1].writes:cps.bounds[2].writes] {
			bridged = bridged || w.addr < x+4 && w.addr+w.n > x+8
		}
		if !bridged || covers(cps.stores(1), x+4) || !covers(cps.stores(1), x) {
			t.Fatalf("CTA 1's log does not bridge the odd word it leaves alone: %+v", cps.writes)
		}
		trapped := 0
		defer auditDiffs(t)()
		for _, inj := range firstCTASites(g, 12) {
			forked, replay := againstReplay(t, job, g, inj, 0)
			if forked.Skips == 1 && replay.Err == nil && !bytes.Equal(replay.Output, g.Output) {
				trapped++
			}
		}
		if trapped == 0 {
			t.Fatal("no corrupted odd word outlived a skip of CTA 1")
		}
	})

	// Both CTAs store the same words with the same values (CTA 1's log is
	// empty), so a skip of CTA 1 leaves no diff and the run joins.
	t.Run("skip then join", func(t *testing.T) {
		job := strideJob("overwrite", []string{"x"}, "x", func(in uint32, b map[string]uint32) []device.Step {
			return []device.Step{strideLaunch("K1", in, b["x"], 1, 0, 1, 0), noHost}
		})
		g := Run(job, Options{Record: true})
		joined := 0
		defer auditDiffs(t)()
		for _, inj := range firstCTASites(g, 3) {
			if forked, _ := againstReplay(t, job, g, inj, 0); forked.Skips == 1 && forked.Joined {
				joined++
			}
		}
		if joined == 0 {
			t.Fatal("no skip covered the whole diff and joined")
		}
	})

	// K1 fills x, a host step copies x to w, K2 fills y from w. A fault in
	// K1's CTA 0 reaches w only through the host step, which runs after K1's
	// CTA 1 was skipped; K2's CTA 0 must then be refused for reading it, and
	// K2's CTA 1 skipped. With a budget one short of the replay's count the
	// last skip is refused and the run times out inside that CTA.
	t.Run("host step, read refusal, budget", func(t *testing.T) {
		copyXW := func(x, w uint32) device.Step {
			return device.Step{Host: func(m *device.Memory, off uint32) int {
				for i := uint32(0); i < 256; i += 4 {
					m.PokeU32(w+off+i, m.PeekU32(x+off+i))
				}
				return -1
			}}
		}
		job := strideJob("pipeline", []string{"x", "w", "y"}, "y", func(in uint32, b map[string]uint32) []device.Step {
			return []device.Step{
				strideLaunch("K1", in, b["x"], 1, 32, 1, 32),
				copyXW(b["x"], b["w"]),
				strideLaunch("K2", b["w"], b["y"], 1, 32, 1, 32),
				noHost,
			}
		})
		g := Run(job, Options{Record: true})
		refused, budgeted := 0, 0
		defer auditDiffs(t)()
		for _, inj := range firstCTASites(g, 7) {
			forked, replay := againstReplay(t, job, g, inj, 0)
			if forked.Skips != 2 || forked.ReadRefusals != 1 || bytes.Equal(replay.Output, g.Output) {
				continue
			}
			refused++
			short, _ := againstReplay(t, job, g, inj, replay.DynInstrs-1)
			if !short.TimedOut || short.Skips != 1 {
				t.Fatalf("%+v: budget one short of the replay's: timed out %v after %d skips", inj, short.TimedOut, short.Skips)
			}
			budgeted++
		}
		if refused == 0 || budgeted == 0 {
			t.Fatalf("%d runs refused a CTA reading the host step's copy, %d timed out at the budget", refused, budgeted)
		}
	})
}

// skipFuzzJob wraps a generated program into two launches of four CTAs each
// over the same two buffers, the second reading what the first wrote. The
// CTAs are replicas, so each gets its own quarter of both buffers through
// its parameters; offsets past a quarter reach the neighbours'.
func skipFuzzJob(prog *isa.Program) *device.Job {
	m := device.NewMemory(1 << 16)
	a := m.Alloc("a", 1024)
	b := m.Alloc("b", 1024)
	for i := uint32(0); i < 256; i++ {
		m.PokeU32(a+4*i, i*2654435761+1)
	}
	launch := func(name string, src, dst uint32) device.Step {
		l := &device.Launch{
			Kernel: prog, KernelName: name, GridX: 1, GridY: 1, BlockX: 64, BlockY: 1,
			SmemBytes: 256, Replicas: 4,
			ParamIsPtr: []bool{true, true},
		}
		for r := range uint32(4) {
			l.ReplicaParams = append(l.ReplicaParams, []uint32{src + 256*r, dst + 256*r})
		}
		return device.Step{Launch: l}
	}
	return &device.Job{
		Name: "fuzz-skip", Mem: m,
		Steps:   []device.Step{launch("K1", a, b), launch("K2", b, a)},
		Outputs: []device.Output{{Name: "a", Addr: a, Size: 1024}, {Name: "b", Addr: b, Size: 1024}},
	}
}

// FuzzSoftSkipParity: on generated programs, every sampled injection, in all
// three modes, forked with the join and the skip, reports what a replay from
// the start of the job reports, with every probed diff audited.
func FuzzSoftSkipParity(f *testing.F) {
	f.Add([]byte{0})
	// out[tid] = 2·in[tid] in each CTA's own quarters: faults that corrupt
	// a stored value leave words no later CTA of the launch reads.
	f.Add([]byte{7,
		3, 1, 0, 0, 0, 0, 0, 0, 0, // S2R R1, tid.x
		6, 2, 0, 0, 0, 0, 0, 0, 0, // LDC R2, param 0
		11, 3, 1, 2, 0, 0, 0, 0, 2, // ISCADD R3, R1, R2, 2
		31, 4, 3, 0, 0, 0, 0, 0, 0, // LDG R4, [R3]
		7, 4, 4, 4, 0, 0, 0, 0, 0, // IADD R4, R4, R4
		6, 5, 0, 0, 0, 0, 0, 0, 1, // LDC R5, param 1
		11, 6, 1, 5, 0, 0, 0, 0, 2, // ISCADD R6, R1, R5, 2
		32, 0, 6, 4, 0, 0, 0, 0, 0, // STG [R6], R4
		9, 0, 0, 3})
	f.Add(bytes.Repeat([]byte{0x1F, 0x05, 0x21, 0x40}, 12))
	f.Add([]byte("loads and stores across launches"))
	f.Fuzz(func(t *testing.T, data []byte) {
		job := skipFuzzJob(fuzzprog.Program(data))
		g := Run(job, Options{Record: true})
		if g.Err != nil || g.TimedOut {
			return
		}
		// The sites: the last bytes of the stream, as in FuzzFuncsimParity.
		tail := func(i int) int64 {
			if i < len(data) {
				return int64(data[len(data)-1-i])
			}
			return 0
		}
		pick, bit := tail(0)<<16|tail(1)<<8|tail(2), tail(3)
		defer auditDiffs(t)()
		for _, mode := range injectModes {
			total := candidates(mode, g.DstCands, g.LoadCands, g.UseCands)
			for k := int64(0); k < 4 && total > 0; k++ {
				inj := Injection{Mode: mode, Index: (pick + k*total/4) % total, Bit: uint8((bit + k) % 32)}
				againstReplay(t, job, g, inj, 10*g.DynInstrs+1000)
			}
		}
	})
}
