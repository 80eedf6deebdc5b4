package ace

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/kernels"
)

// chainJob builds a kernel with a long-lived value: v is produced once and
// read at the end after busy-work, so its ACE interval spans the loop.
func chainJob(iters int32) *device.Job {
	b := kasm.New("chain")
	tid := b.S2R(isa.SRTidX)
	v := b.Ldg(b.IScAdd(tid, b.Param(0), 2), 0) // long-lived
	i := b.MovI(0)
	acc := b.MovI(0)
	b.ForI(i, iters, 1, func() {
		b.IAddTo(acc, acc, i)
	})
	b.Stg(b.IScAdd(tid, b.Param(1), 2), 0, b.IAdd(v, acc))
	prog := b.MustBuild()

	m := device.NewMemory(1 << 16)
	in := m.Alloc("in", 4*32)
	out := m.Alloc("out", 4*32)
	return &device.Job{
		Name: "chain", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
			Params: []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * 32}},
	}
}

func TestACEBasics(t *testing.T) {
	r, err := AnalyzeRF(chainJob(50), gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	if r.AVFACE <= 0 || r.AVFACE > 1 {
		t.Errorf("ACE AVF = %v out of range", r.AVFACE)
	}
	if r.ACECycles == 0 || r.Cycles == 0 {
		t.Errorf("analysis saw no activity: %+v", r)
	}
}

// TestAnalyzeRFPinned pins the ACE analysis of every shipped application,
// plain and TMR-hardened, to the numbers the classical write-to-last-read
// tracker fed by a lane-by-lane register trace computed before the analysis
// moved onto the schedule trace's live intervals. The two records agree
// exactly because shipped kernels never read a register before writing it.
func TestAnalyzeRFPinned(t *testing.T) {
	want := []struct {
		app       string
		tmr       bool
		avf       float64
		aceCycles int64
	}{
		{"SRADv1", false, 0.018760909399947578, 49399452},
		{"SRADv1", true, 0.03407557062107882, 158930712},
		{"SRADv2", false, 0.030906449282035193, 83514800},
		{"SRADv2", true, 0.036742911174072496, 247579224},
		{"K-Means", false, 0.014993418477637197, 42144086},
		{"K-Means", true, 0.04201321320498348, 140917883},
		{"HotSpot", false, 0.045596889456563046, 81823926},
		{"HotSpot", true, 0.05011112954388863, 247258608},
		{"LUD", false, 0.0014635146135029595, 29069088},
		{"LUD", true, 0.004566214579219375, 91834880},
		{"SCP", false, 0.02908448202825096, 45681128},
		{"SCP", true, 0.08464303466031912, 230151914},
		{"VA", false, 0.03543777842713479, 19745472},
		{"VA", true, 0.05180714150411874, 65534784},
		{"NW", false, 0.0012785604317304227, 15108488},
		{"NW", true, 0.004117263613270738, 50134226},
		{"PathFinder", false, 0.014296744319601862, 19447364},
		{"PathFinder", true, 0.03720098695946445, 80400492},
		{"BackProp", false, 0.027738520593354195, 30714760},
		{"BackProp", true, 0.06051085006359012, 102313488},
		{"BFS", false, 0.0017657853035015164, 21095287},
		{"BFS", true, 0.005752050342610647, 82603887},
	}
	for _, w := range want {
		app, err := kernels.ByName(w.app)
		if err != nil {
			t.Fatal(err)
		}
		job := app.Build()
		if w.tmr {
			job = harden.TMR(job)
		}
		r, err := AnalyzeRF(job, gpu.Volta())
		if err != nil {
			t.Fatalf("%s tmr=%v: %v", w.app, w.tmr, err)
		}
		if r.AVFACE != w.avf || r.ACECycles != w.aceCycles {
			t.Errorf("%s tmr=%v: AVFACE %v, ACECycles %d; pinned %v, %d", w.app, w.tmr, r.AVFACE, r.ACECycles, w.avf, w.aceCycles)
		}
	}
}

// TestACEGrowsWithLiveRange: stretching the live range of a value (longer
// busy loop between producing and consuming it) must increase ACE cycles.
func TestACEGrowsWithLiveRange(t *testing.T) {
	short, err := AnalyzeRF(chainJob(10), gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	long, err := AnalyzeRF(chainJob(200), gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	if long.ACECycles <= short.ACECycles {
		t.Errorf("longer live range must add ACE cycles: %d vs %d", short.ACECycles, long.ACECycles)
	}
}

// TestACEDeadValueNotCounted: a value written and never read contributes no
// ACE interval.
func TestACEDeadValueNotCounted(t *testing.T) {
	b := kasm.New("dead")
	// x's first write is dynamically dead: the guarded overwrite below fires
	// for every lane (tid >= 0 always holds) before any read. Statically the
	// overwrite is only a may-write, so the program passes the build-time
	// linter — exactly the gap between static and dynamic liveness.
	x := b.MovI(42)
	tid := b.S2R(isa.SRTidX)
	p := b.P()
	b.ISetpI(p, isa.CmpGE, tid, 0)
	b.Guarded(p, false, func() { b.MovITo(x, 7) })
	b.FreeP(p)
	b.Stg(b.IScAdd(tid, b.Param(0), 2), 0, x)
	prog := b.MustBuild()
	m := device.NewMemory(1 << 16)
	out := m.Alloc("out", 4*32)
	job := &device.Job{
		Name: "dead", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * 32}},
	}
	r, err := AnalyzeRF(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	// only the tid/address chain is live; the dead constant adds nothing,
	// so ACE cycles stay small
	if r.AVFACE > 0.01 {
		t.Errorf("nearly-dead kernel has ACE AVF %v", r.AVFACE)
	}
}

func TestACEOnBenchmarks(t *testing.T) {
	for _, name := range []string{"VA", "SCP"} {
		app, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := AnalyzeRF(app.Build(), gpu.Volta())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.AVFACE <= 0 || r.AVFACE > 1 {
			t.Errorf("%s: ACE AVF = %v", name, r.AVFACE)
		}
	}
}

func TestPVFBasics(t *testing.T) {
	r, err := AnalyzePVF(chainJob(50))
	if err != nil {
		t.Fatal(err)
	}
	if r.PVF <= 0 || r.PVF > 1 {
		t.Errorf("PVF = %v out of range", r.PVF)
	}
	if r.ACEInstrs == 0 || r.DynInstrs == 0 {
		t.Errorf("empty PVF analysis: %+v", r)
	}
}

// TestPVFPinned pins the PVF analysis of every shipped application, plain
// and TMR-hardened, to the numbers it computed before funcsim's register
// trace grew into the per-access tracer the propagation analysis shares.
func TestPVFPinned(t *testing.T) {
	want := []struct {
		app                  string
		tmr                  bool
		aceInstrs, dynInstrs int64
	}{
		{"SRADv1", false, 83092995, 313871},
		{"SRADv1", true, 251998729, 970285},
		{"SRADv2", false, 242452736, 301568},
		{"SRADv2", true, 730077952, 933376},
		{"K-Means", false, 51919360, 176128},
		{"K-Means", true, 156438016, 535552},
		{"HotSpot", false, 1214076364, 616992},
		{"HotSpot", true, 3644948836, 1879648},
		{"LUD", false, 93448480, 220256},
		{"LUD", true, 283065184, 689440},
		{"SCP", false, 14233416, 69112},
		{"SCP", true, 42742232, 208520},
		{"VA", false, 2490368, 34816},
		{"VA", true, 12910592, 161792},
		{"NW", false, 12211464, 84984},
		{"NW", true, 39542688, 285948},
		{"PathFinder", false, 84625758, 137900},
		{"PathFinder", true, 254557210, 420868},
		{"BackProp", false, 53962112, 111744},
		{"BackProp", true, 164875152, 367912},
		{"BFS", false, 5018466, 139180},
		{"BFS", true, 16415270, 431876},
	}
	for _, w := range want {
		app, err := kernels.ByName(w.app)
		if err != nil {
			t.Fatal(err)
		}
		job := app.Build()
		if w.tmr {
			job = harden.TMR(job)
		}
		r, err := AnalyzePVF(job)
		if err != nil {
			t.Fatal(err)
		}
		if r.ACEInstrs != w.aceInstrs || r.DynInstrs != w.dynInstrs {
			t.Errorf("%s tmr=%v: ACE %d / %d instructions, pinned %d / %d",
				w.app, w.tmr, r.ACEInstrs, r.DynInstrs, w.aceInstrs, w.dynInstrs)
		}
	}
}

// TestPVFMicroarchIndependence pins PVF's defining property (§VII): it is
// computed purely from architecturally visible state, so shrinking the
// physical register file changes the ACE-based hardware AVF but leaves PVF
// untouched.
func TestPVFMicroarchIndependence(t *testing.T) {
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	pvfA, err := AnalyzePVF(job)
	if err != nil {
		t.Fatal(err)
	}
	pvfB, err := AnalyzePVF(job)
	if err != nil {
		t.Fatal(err)
	}
	if pvfA.PVF != pvfB.PVF {
		t.Error("PVF must be deterministic")
	}

	big := gpu.Volta()
	small := gpu.Volta()
	small.RFRegsPerSM /= 4 // still fits VA's CTAs
	avfBig, err := AnalyzeRF(job, big)
	if err != nil {
		t.Fatal(err)
	}
	avfSmall, err := AnalyzeRF(job, small)
	if err != nil {
		t.Fatal(err)
	}
	if avfSmall.AVFACE <= avfBig.AVFACE {
		t.Errorf("a smaller RF must raise the hardware ACE AVF: %v vs %v",
			avfSmall.AVFACE, avfBig.AVFACE)
	}
}
