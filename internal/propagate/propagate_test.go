package propagate

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/funcsim"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/kernels"
)

// chainedJob: out[i] = (in[i]*3 + 7); a side value lands only in a scratch
// buffer outside the declared outputs, so taint seeded on it must die.
func chainedJob(n int) *device.Job {
	b := kasm.New("chain")
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), b.S2R(isa.SRTidX))
	p := b.P()
	b.ISetpI(p, isa.CmpLT, i, int32(n))
	b.If(p, false, func() {
		v := b.Ldg(b.IScAdd(i, b.Param(0), 2), 0)
		b.Stg(b.IScAdd(i, b.Param(2), 2), 0, b.MovI(99)) // scratch-only value
		r := b.IAddI(b.IMulI(v, 3), 7)
		b.Stg(b.IScAdd(i, b.Param(1), 2), 0, r)
	})
	b.FreeP(p)
	prog := b.MustBuild()
	m := device.NewMemory(1 << 18)
	in := m.Alloc("in", 4*n)
	out := m.Alloc("out", 4*n)
	scratch := m.Alloc("scratch", 4*n)
	vals := make([]uint32, n)
	for k := range vals {
		vals[k] = uint32(k)
	}
	m.WriteU32s(in, vals)
	return &device.Job{
		Name: "chain", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: n, BlockY: 1,
			Params: []uint32{in, out, scratch}, ParamIsPtr: []bool{true, true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: uint32(4 * n)}},
	}
}

func TestSeedReachesOutput(t *testing.T) {
	job := chainedJob(32)
	g := funcsim.Run(job, funcsim.Options{CollectWindows: true})
	reached, died := 0, 0
	for idx := int64(0); idx < g.DstCands; idx++ {
		r, err := Analyze(job, Seed{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Seeded {
			t.Fatalf("seed %d never reached", idx)
		}
		if r.OutputTainted {
			reached++
		} else {
			died++
		}
	}
	if reached == 0 {
		t.Error("no seed propagated to the output")
	}
	if died == 0 {
		t.Error("no seed died (the dead value must not propagate)")
	}
}

// TestDeadValueDoesNotPropagate builds a single-thread kernel whose write
// sequence is fully known and asserts exactly which seeds reach the output:
// writes on the dataflow path to the out-word store do; the constant that
// only ever lands in a non-output scratch word does not.
func TestDeadValueDoesNotPropagate(t *testing.T) {
	b := kasm.New("onethread")
	dead := b.MovI(123)  // write 0: stored only outside the output
	addr := b.Param(0)   // write 1: base pointer (feeds all stores)
	v := b.Ldg(addr, 0)  // write 2: loaded value
	r := b.IAddI(v, 1)   // write 3: on the path
	b.Stg(addr, 4, r)    // store to out word 1
	b.Stg(addr, 8, dead) // store to word 2, outside Outputs
	prog := b.MustBuild()

	m := device.NewMemory(1 << 14)
	buf := m.Alloc("buf", 16)
	m.PokeU32(buf, 7)
	job := &device.Job{
		Name: "onethread", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
			Params: []uint32{buf}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: buf + 4, Size: 4}},
	}
	want := map[int64]bool{0: false, 1: true, 2: true, 3: true}
	for idx, wantTaint := range want {
		res, err := Analyze(job, Seed{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Seeded {
			t.Fatalf("seed %d unreachable", idx)
		}
		if res.OutputTainted != wantTaint {
			t.Errorf("seed %d: OutputTainted = %v, want %v", idx, res.OutputTainted, wantTaint)
		}
	}
}

// TestTaintThroughSharedMemory: taint must survive a smem round trip.
func TestTaintThroughSharedMemory(t *testing.T) {
	b := kasm.New("smem")
	tid := b.S2R(isa.SRTidX)
	v := b.Ldg(b.IScAdd(tid, b.Param(0), 2), 0)
	b.Sts(b.Shl(tid, 2), 0, v)
	b.Barrier()
	// read the neighbour's value
	n := b.AndI(b.IAddI(tid, 1), 31)
	w := b.Lds(b.Shl(n, 2), 0)
	b.Stg(b.IScAdd(tid, b.Param(1), 2), 0, w)
	prog := b.MustBuild()
	m := device.NewMemory(1 << 16)
	in := m.Alloc("in", 4*32)
	out := m.Alloc("out", 4*32)
	job := &device.Job{
		Name: "smem", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1, SmemBytes: 128,
			Params: []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * 32}},
	}
	// seed the load destination of some thread: taint must cross to another
	// thread through shared memory
	g := funcsim.Run(job, funcsim.Options{CollectWindows: true})
	crossed := false
	for idx := int64(0); idx < g.DstCands && !crossed; idx++ {
		r, err := Analyze(job, Seed{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		if r.OutputTainted && r.TaintedThreads >= 2 {
			crossed = true
		}
	}
	if !crossed {
		t.Error("taint never crossed threads through shared memory")
	}
}

// pinnedJobs is every shipped application, plain and TMR-hardened.
func pinnedJobs() []*device.Job {
	var jobs []*device.Job
	for _, app := range kernels.All() {
		jobs = append(jobs, app.Build(), harden.TMR(app.Build()))
	}
	return jobs
}

// TestWriteIndexAlignment: the propagation seed space must align with the
// softfi candidate space (same counting of destination writes), and the
// analysis must execute what the functional simulator executes.
func TestWriteIndexAlignment(t *testing.T) {
	for _, job := range append([]*device.Job{chainedJob(16)}, pinnedJobs()...) {
		g := funcsim.Run(job, funcsim.Options{CollectWindows: true})
		r, err := Analyze(job, Seed{Index: g.DstCands - 1})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Seeded {
			t.Errorf("%s: last candidate index not reachable: spaces misaligned", job.Name)
		}
		if r.DynInstrs != g.DynInstrs {
			t.Errorf("%s: analysis executed %d thread-instructions, funcsim %d", job.Name, r.DynInstrs, g.DynInstrs)
		}
		r, err = Analyze(job, Seed{Index: g.DstCands})
		if err != nil {
			t.Fatal(err)
		}
		if r.Seeded {
			t.Errorf("%s: index beyond the candidate space must not seed", job.Name)
		}
	}
}

// pin is one analysed seed: its index and what the analysis reported.
type pin struct {
	idx             int64
	instrs          int64
	threads, gbytes int
	output          bool
}

// TestAnalyzePinned pins every Result field of eight seeds spread over the
// candidate space (the first, the last and six between) of every shipped
// application, plain and TMR-hardened, to the numbers the tracker computed
// when it ran on its own exec.Step interpreter.
func TestAnalyzePinned(t *testing.T) {
	want := []struct {
		app       string
		tmr       bool
		dstCands  int64
		dynInstrs int64
		pins      []pin
	}{
		{"SRADv1", false, 229139, 313871, []pin{
			{0, 213, 13, 72, true},
			{32734, 35, 8, 8, false},
			{65468, 14, 2, 4, false},
			{98202, 37, 7, 16, true},
			{130936, 56, 7, 20, true},
			{163670, 105, 7, 32, true},
			{196404, 11, 2, 4, true},
			{229138, 1, 1, 4, true},
		}},
		{"SRADv1", true, 708921, 970285, []pin{
			{0, 228, 16, 72, true},
			{101274, 36, 7, 8, false},
			{202548, 14, 5, 4, false},
			{303822, 60, 7, 24, true},
			{405097, 73, 10, 32, true},
			{506371, 26, 3, 4, true},
			{607645, 44, 3, 8, true},
			{708920, 1, 1, 4, true},
		}},
		{"SRADv2", false, 252416, 301568, []pin{
			{0, 407, 18, 112, true},
			{36059, 473, 30, 184, true},
			{72118, 224, 17, 92, true},
			{108177, 361, 20, 136, true},
			{144237, 20, 4, 16, true},
			{180296, 25, 3, 12, true},
			{216355, 5, 1, 4, true},
			{252415, 1, 1, 4, true},
		}},
		{"SRADv2", true, 778752, 933376, []pin{
			{0, 437, 24, 112, true},
			{111250, 273, 27, 132, true},
			{222500, 272, 27, 132, true},
			{333750, 270, 26, 132, true},
			{445000, 45, 7, 16, true},
			{556250, 46, 7, 28, true},
			{667500, 10, 2, 4, true},
			{778751, 1, 1, 4, true},
		}},
		{"K-Means", false, 140800, 176128, []pin{
			{0, 166, 2, 36, true},
			{20114, 15, 1, 4, true},
			{40228, 13, 1, 4, true},
			{60342, 1, 1, 0, false},
			{80456, 56, 1, 4, true},
			{100570, 12, 1, 4, true},
			{120684, 10, 1, 4, true},
			{140799, 1, 1, 4, true},
		}},
		{"K-Means", true, 427776, 535552, []pin{
			{0, 171, 3, 36, true},
			{61110, 21, 2, 4, true},
			{122221, 17, 2, 4, true},
			{183332, 19, 2, 8, true},
			{244442, 57, 2, 8, true},
			{305553, 75, 2, 8, true},
			{366664, 18, 2, 8, true},
			{427775, 1, 1, 4, true},
		}},
		{"HotSpot", false, 434080, 616992, []pin{
			{0, 17, 1, 0, false},
			{62011, 3, 1, 0, false},
			{124022, 238, 14, 56, true},
			{186033, 632, 33, 104, true},
			{248045, 6, 1, 0, false},
			{310056, 1, 1, 0, false},
			{372067, 3, 1, 0, false},
			{434079, 1, 1, 0, false},
		}},
		{"HotSpot", true, 1323744, 1879648, []pin{
			{0, 17, 1, 0, false},
			{189106, 1, 1, 0, false},
			{378212, 803, 60, 212, true},
			{567318, 5, 1, 0, false},
			{756424, 26, 4, 4, true},
			{945530, 118, 11, 32, true},
			{1134636, 19, 2, 8, true},
			{1323743, 1, 1, 4, true},
		}},
		{"LUD", false, 183328, 220256, []pin{
			{0, 45468, 320, 3904, true},
			{26189, 1459, 43, 228, true},
			{52379, 4049, 37, 704, true},
			{78568, 6892, 33, 988, true},
			{104758, 1656, 32, 352, true},
			{130947, 349, 6, 104, true},
			{157137, 121, 8, 28, true},
			{183327, 1, 1, 0, false},
		}},
		{"LUD", true, 571488, 689440, []pin{
			{0, 50348, 1296, 3904, true},
			{81641, 7523, 281, 948, true},
			{163282, 1582, 96, 440, true},
			{244923, 5148, 219, 1432, true},
			{326564, 415, 25, 80, true},
			{408205, 741, 53, 328, true},
			{489846, 317, 26, 64, true},
			{571487, 1, 1, 4, true},
		}},
		{"SCP", false, 40952, 69112, []pin{
			{0, 90, 1, 4, true},
			{5850, 20, 5, 4, true},
			{11700, 35, 4, 4, true},
			{17550, 72, 4, 4, true},
			{23400, 57, 4, 4, true},
			{29250, 18, 5, 4, true},
			{35100, 15, 2, 4, true},
			{40951, 1, 1, 0, false},
		}},
		{"SCP", true, 123624, 208520, []pin{
			{0, 95, 2, 4, true},
			{17660, 62, 8, 4, true},
			{35320, 6, 1, 0, false},
			{52981, 22, 7, 8, true},
			{70641, 26, 7, 8, true},
			{88302, 24, 7, 8, true},
			{105962, 22, 7, 8, true},
			{123623, 1, 1, 0, false},
		}},
		{"VA", false, 28672, 34816, []pin{
			{0, 8, 1, 4, true},
			{4095, 8, 1, 4, true},
			{8191, 7, 1, 4, true},
			{12287, 4, 1, 4, true},
			{16383, 2, 1, 4, true},
			{20479, 3, 1, 4, true},
			{24575, 2, 1, 4, true},
			{28671, 1, 1, 4, true},
		}},
		{"VA", true, 129024, 161792, []pin{
			{0, 13, 2, 4, true},
			{18431, 13, 2, 4, true},
			{36863, 12, 2, 8, true},
			{55295, 9, 2, 8, true},
			{73727, 7, 2, 8, true},
			{92159, 14, 1, 4, true},
			{110591, 7, 1, 4, true},
			{129023, 1, 1, 4, true},
		}},
		{"NW", false, 68024, 84984, []pin{
			{0, 10050, 64, 4096, true},
			{9717, 4457, 63, 2040, true},
			{19435, 986, 24, 476, true},
			{29152, 831, 25, 400, true},
			{38870, 2987, 32, 1392, true},
			{48587, 1, 1, 4, true},
			{58305, 359, 16, 192, true},
			{68023, 1, 1, 0, false},
		}},
		{"NW", true, 227256, 285948, []pin{
			{0, 15170, 1088, 4096, true},
			{32465, 9, 2, 8, true},
			{64930, 8, 2, 4, true},
			{97395, 1815, 161, 1088, true},
			{129860, 2416, 209, 1440, true},
			{162325, 822, 79, 252, true},
			{194790, 737, 72, 448, true},
			{227255, 1, 1, 0, false},
		}},
		{"PathFinder", false, 97196, 137900, []pin{
			{0, 9, 1, 0, false},
			{13885, 320, 34, 96, true},
			{27770, 159, 19, 64, true},
			{41655, 1, 1, 0, false},
			{55540, 59, 8, 32, true},
			{69425, 1, 1, 0, false},
			{83310, 5, 1, 4, true},
			{97195, 1, 1, 0, false},
		}},
		{"PathFinder", true, 296964, 420868, []pin{
			{0, 9, 1, 0, false},
			{42423, 2, 1, 0, false},
			{84846, 200, 28, 64, true},
			{127269, 6, 1, 0, false},
			{169693, 82, 13, 32, true},
			{212116, 80, 13, 52, true},
			{254539, 1, 1, 0, false},
			{296963, 1, 1, 4, true},
		}},
		{"BackProp", false, 72816, 111744, []pin{
			{0, 37, 1, 4, false},
			{10402, 2, 1, 0, false},
			{20804, 1, 1, 0, false},
			{31206, 17, 2, 4, false},
			{41608, 2, 1, 0, false},
			{52010, 3, 1, 4, true},
			{62412, 4, 1, 8, true},
			{72815, 1, 1, 4, true},
		}},
		{"BackProp", true, 242800, 367912, []pin{
			{0, 37, 1, 4, false},
			{34685, 12, 4, 4, false},
			{69371, 19, 5, 4, false},
			{104056, 10, 3, 4, false},
			{138742, 11, 2, 8, true},
			{173427, 7, 2, 8, true},
			{208113, 10, 2, 12, true},
			{242799, 1, 1, 0, false},
		}},
		{"BFS", false, 94907, 139180, []pin{
			{0, 1074, 523, 2048, true},
			{13558, 1, 1, 0, false},
			{27116, 10, 3, 4, true},
			{40674, 2, 2, 0, false},
			{54232, 3, 1, 0, false},
			{67790, 3, 1, 0, false},
			{81348, 2, 1, 0, false},
			{94906, 1, 1, 0, false},
		}},
		{"BFS", true, 295473, 431876, []pin{
			{0, 3629, 1034, 2048, true},
			{42210, 1, 1, 0, false},
			{84420, 1, 1, 0, false},
			{126630, 3, 1, 0, false},
			{168841, 4, 1, 0, false},
			{211051, 4, 1, 0, false},
			{253261, 2, 1, 0, false},
			{295472, 1, 1, 4, true},
		}},
	}
	for i, job := range pinnedJobs() {
		w := want[i]
		if name := w.app + map[bool]string{true: "+TMR"}[w.tmr]; job.Name != name {
			t.Fatalf("job %d is %s, want %s", i, job.Name, name)
		}
		g := funcsim.Run(job, funcsim.Options{CollectWindows: true})
		if g.DstCands != w.dstCands || g.DynInstrs != w.dynInstrs {
			t.Fatalf("%s: %d candidates / %d instructions, pinned %d / %d", job.Name, g.DstCands, g.DynInstrs, w.dstCands, w.dynInstrs)
		}
		for k, p := range w.pins {
			if p.idx != int64(k)*(w.dstCands-1)/7 {
				t.Fatalf("%s: pin %d is seed %d", job.Name, k, p.idx)
			}
			r, err := Analyze(job, Seed{Index: p.idx})
			if err != nil {
				t.Fatal(err)
			}
			outcome := "Masked"
			if p.output {
				outcome = "SDC"
			}
			exp := Result{Seeded: true, TaintedInstrs: p.instrs, TaintedThreads: p.threads,
				TaintedGlobalBytes: p.gbytes, OutputTainted: p.output, PredictedOutcome: outcome,
				DynInstrs: w.dynInstrs}
			if *r != exp {
				t.Errorf("%s seed %d: %+v, pinned %+v", job.Name, p.idx, *r, exp)
			}
		}
	}
}

// TestPredictionCorrelation (integration): the propagation-based SDC
// prediction must agree with real injections much more often than chance on
// a real benchmark. High bits of data values reliably surface as SDCs when
// they reach output, so inject bit 30.
func TestPredictionCorrelation(t *testing.T) {
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	g := funcsim.Run(job, funcsim.Options{CollectWindows: true})
	agree, total := 0, 0
	for k := int64(0); k < 60; k++ {
		idx := (k * 7919) % g.DstCands
		pr, err := Analyze(job, Seed{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		run := funcsim.Run(job, funcsim.Options{
			MaxDynInstrs: g.DynInstrs * 10,
			Inject:       &funcsim.Injection{Mode: funcsim.InjectDst, Index: idx, Bit: 30},
		})
		if run.Err != nil || run.TimedOut {
			continue // prediction does not model DUE/timeout
		}
		actualSDC := string(run.Output) != string(g.Output)
		total++
		if actualSDC == pr.OutputTainted {
			agree++
		}
	}
	if total == 0 {
		t.Skip("all sampled injections crashed")
	}
	if ratio := float64(agree) / float64(total); ratio < 0.7 {
		t.Errorf("propagation prediction agrees on only %.0f%% of %d sites", 100*ratio, total)
	}
}
