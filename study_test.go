package gpurel

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/microfi"
	"gpurel/internal/softfi"
)

// TestPipelineVA runs small AVF and SVF campaigns on vectorAdd end to end.
func TestPipelineVA(t *testing.T) {
	s := NewStudy(40, 1)
	avf, structs, err := s.KernelAVF("VA", "K1", false)
	if err != nil {
		t.Fatal(err)
	}
	if avf.Total() < 0 || avf.Total() > 1 {
		t.Errorf("AVF out of range: %v", avf.Total())
	}
	if len(structs) != int(gpu.NumStructures) {
		t.Fatalf("expected %d structures, got %d", gpu.NumStructures, len(structs))
	}
	svf, err := s.KernelSVF("VA", "K1", false)
	if err != nil {
		t.Fatal(err)
	}
	if svf.Total() <= 0 {
		t.Errorf("SVF should be positive for VA (most register flips corrupt the sum), got %v", svf.Total())
	}
	// The paper's scale separation: full-system AVF well below SVF.
	if avf.Total() >= svf.Total() {
		t.Errorf("expected AVF (%v) < SVF (%v): hardware masking must dominate", avf.Total(), svf.Total())
	}
}

// TestTMREliminatesSDCsAtSVF reproduces the §IV headline at tiny scale: under
// software-level evaluation, TMR removes (nearly all) SDCs.
func TestTMREliminatesSDCsAtSVF(t *testing.T) {
	s := NewStudy(60, 2)
	plain, err := s.SoftTally("VA", "K1", softfi.SVF, false)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := s.SoftTally("VA", "K1", softfi.SVF, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counts[faults.SDC] == 0 {
		t.Skip("plain campaign produced no SDCs at this sample size")
	}
	if hard.Pct(faults.SDC) >= plain.Pct(faults.SDC) {
		t.Errorf("TMR did not reduce SVF SDCs: plain %.2f, hardened %.2f",
			plain.Pct(faults.SDC), hard.Pct(faults.SDC))
	}
}

// TestSoftCheckpointCounts: soft campaigns report their fork-and-join work
// through SoftCheckpointCounts and leave the cycle simulator's ledger alone.
func TestSoftCheckpointCounts(t *testing.T) {
	s := NewStudy(40, 3)
	if c := s.SoftCheckpointCounts(); c != (softfi.CheckpointCounts{}) {
		t.Fatalf("empty study: %+v", c)
	}
	// Building VA takes its micro snapshots; the soft campaigns must add none.
	if _, err := s.Eval("VA"); err != nil {
		t.Fatal(err)
	}
	before := s.CheckpointCounts()
	for _, hardened := range []bool{false, true} {
		if _, err := s.SoftTally("VA", "K1", softfi.SVF, hardened); err != nil {
			t.Fatal(err)
		}
	}
	c := s.SoftCheckpointCounts()
	// VA is 8 CTAs of 8 warps and the voter 16 of 4, all without barriers
	// or shared memory, so each warp is a step; TMR triples VA's CTAs and
	// adds the voter's; each job ends with one more boundary
	if c.Boundaries != (8*8+1)+(3*8*8+16*4+1) || c.DeltaBytes == 0 {
		t.Errorf("inventory: %+v", c)
	}
	if c.Forks == 0 || c.Forks > 80 || c.ForkInstrsSkipped == 0 || c.Joins == 0 || c.JoinInstrsSkipped == 0 {
		t.Errorf("80 injections over 65 and 257 boundaries must fork and join: %+v", c)
	}
	// a corrupted output word of VA is read by no later CTA
	for _, g := range []*softfi.GoldenRun{s.apps["VA"].SoftG, s.apps["VA"].SoftGTMR} {
		if sk := g.CheckpointCounts(); sk.Skips == 0 || sk.SkipInstrsSkipped == 0 {
			t.Errorf("no step taken from the record: %+v", sk)
		}
	}
	if m := s.CheckpointCounts(); m.ForkResumes != 0 || m.ForkCyclesSaved != 0 || m.ConvergeHits != 0 ||
		m.ConvergeCyclesSaved != 0 || m.ConvergeDisabled != 0 || m.Snapshots != before.Snapshots {
		t.Errorf("soft campaigns moved the micro ledger: %+v, before them %+v", m, before)
	}
}

// TestNewStudyForksAndJoins: a study as NewStudy returns it runs the anchor
// campaign (VA/K1/RF, 300 runs, campaign seed 1) by fork-and-join with dead
// draws pruned, and tallies what brute force does. The anchor's pruned draws
// are exactly its 254 Masked runs, so every run it simulates fails and none
// joins. The VA/K1/L2 campaign that follows prunes its flips that nothing
// reads; an NW/K1/L2 campaign, some of whose read flips are masked and then
// overwritten before a grid cycle, does join.
func TestNewStudyForksAndJoins(t *testing.T) {
	s := NewStudy(300, 1)
	s.Counters = &adaptive.Counters{}
	opts := campaign.Options{Runs: 300, Seed: 1}
	fn, err := s.PointExperiment(PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF})
	if err != nil {
		t.Fatal(err)
	}
	if tl := campaign.Run(opts, fn); tl.Counts != [4]int{254, 29, 0, 17} {
		t.Errorf("anchor tallied %v, want [254 29 0 17]", tl.Counts)
	}
	if s.Counters.Pruned.Load() == 0 || s.CheckpointCounts().ForkResumes == 0 {
		t.Errorf("the default study did not prune and fork: %d pruned, %+v", s.Counters.Pruned.Load(), s.CheckpointCounts())
	}
	s.Counters = &adaptive.Counters{}
	if fn, err = s.PointExperiment(PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.L2}); err != nil {
		t.Fatal(err)
	}
	campaign.Run(opts, fn)
	if s.Counters.Pruned.Load() == 0 {
		t.Errorf("the L2 campaign pruned nothing: %d simulated", s.Counters.Simulated.Load())
	}
	s.Counters = &adaptive.Counters{}
	if fn, err = s.PointExperiment(PointSpec{Layer: LayerMicro, App: "NW", Kernel: "K1", Structure: gpu.L2}); err != nil {
		t.Fatal(err)
	}
	campaign.Run(opts, fn)
	if c := s.CheckpointCounts(); c.ConvergeHits == 0 || s.Counters.Simulated.Load() == 0 {
		t.Errorf("the default study did not simulate and join: %d simulated, %+v", s.Counters.Simulated.Load(), c)
	}
}

// TestTraceOnlyWhenPrunable: a default study traces a variant's interval map
// only for a point whose draws can be pruned — a transient fault in a
// storage array. A stuck-at RF or L2 point simulates every run and leaves
// the variant untraced; a transient L2 point traces it.
func TestTraceOnlyWhenPrunable(t *testing.T) {
	s := NewStudy(20, 1)
	e, err := s.Eval("VA")
	if err != nil {
		t.Fatal(err)
	}
	stuck := &faultmodel.Spec{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(0)}
	for _, p := range []PointSpec{
		{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF, Fault: stuck},
		{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.L2, Fault: stuck},
	} {
		if _, err := s.Tally(p); err != nil {
			t.Fatal(err)
		}
		if e.plain.iv != nil {
			t.Fatalf("%v %s point traced the interval map", p.Structure, p.faultSpec().Label())
		}
	}
	if _, err := s.Tally(PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.L2}); err != nil {
		t.Fatal(err)
	}
	if e.plain.iv == nil {
		t.Error("a transient L2 point did not trace the interval map")
	}
}

// TestDeterministicCampaigns: identical seeds must reproduce tallies.
func TestDeterministicCampaigns(t *testing.T) {
	a := NewStudy(25, 7)
	b := NewStudy(25, 7)
	ta, _, err := a.MicroTally("SCP", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := b.MicroTally("SCP", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Errorf("campaign not deterministic: %+v vs %+v", ta, tb)
	}
}

// TestConcurrentEvalBuildsOnce: concurrent first uses of an app's variants
// — Eval and the first PointExperiment calls on its plain, TMR and one
// selective variant, raced against a /metrics reader — share one build of
// each golden run: every caller gets the same AppEval and the same golden
// runs, so every run forks from golden runs the study still counts. The
// expected tallies and counts are those of the same runs executed
// sequentially on a fresh study (fork decisions are a function of (seed,
// run) alone); a golden built twice would leave one copy's forks or
// snapshots out of CheckpointCounts or double them.
func TestConcurrentEvalBuildsOnce(t *testing.T) {
	const lanes, each = 4, 10
	specs := []PointSpec{
		{Layer: LayerMicro, App: "SRADv2", Kernel: "K1", Structure: gpu.RF},
		{Layer: LayerMicro, App: "SRADv2", Kernel: "K1", Structure: gpu.RF, Hardened: true},
		{Layer: LayerMicro, App: "SRADv2", Kernel: "K1", Structure: gpu.RF, Harden: []string{"K1"}},
	}
	ck := microfi.CheckpointSpec{Stride: microfi.AutoStride}
	opts := func(spec PointSpec) campaign.Options {
		return campaign.Options{Runs: lanes * each, Seed: PointSeed(1, spec), Workers: 1}
	}

	ref := NewStudy(0, 1)
	ref.Checkpoint = ck
	wantTallies := make([]campaign.Tally, len(specs))
	for i, spec := range specs {
		fn, err := ref.PointExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantTallies[i] = campaign.RunRange(opts(spec), 0, lanes*each, fn)
	}
	if _, err := ref.Eval("SRADv2"); err != nil {
		t.Fatal(err)
	}
	want, wantSoft := ref.CheckpointCounts(), ref.SoftCheckpointCounts()
	if want.ForkResumes == 0 || want.Snapshots == 0 || wantSoft.Boundaries == 0 {
		t.Fatalf("reference study did not fork: %+v, %+v", want, wantSoft)
	}

	s := NewStudy(0, 1)
	s.Checkpoint = ck
	evals := make([]*AppEval, lanes)
	goldens := make([][]*microfi.GoldenRun, lanes)
	tallies := make([][]campaign.Tally, lanes)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() { // the /metrics reader: must not race with a build in flight
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				s.CheckpointCounts()
				s.SoftCheckpointCounts()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goldens[i] = make([]*microfi.GoldenRun, len(specs))
			tallies[i] = make([]campaign.Tally, len(specs))
			// Each lane starts on a different variant, so first uses race.
			for j := range specs {
				k := (i + j) % len(specs)
				fn, err := s.PointExperiment(specs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if goldens[i][k], _, err = s.Golden(specs[k]); err != nil {
					t.Error(err)
					return
				}
				tallies[i][k] = campaign.RunRange(opts(specs[k]), i*each, (i+1)*each, fn)
			}
			e, err := s.Eval("SRADv2")
			if err != nil {
				t.Error(err)
				return
			}
			evals[i] = e
		}(i)
	}
	wg.Wait()
	close(stop)
	<-polled
	if t.Failed() {
		return
	}

	for k, spec := range specs {
		var got campaign.Tally
		for i := range evals {
			if goldens[i][k] != goldens[0][k] {
				t.Errorf("%+v: lane %d got its own golden run", spec, i)
			}
			got.Merge(tallies[i][k])
		}
		if got != wantTallies[k] {
			t.Errorf("%+v: tally %+v, sequential %+v", spec, got, wantTallies[k])
		}
	}
	for i := range evals {
		if evals[i] != evals[0] {
			t.Errorf("lane %d got its own AppEval (%p, lane 0 has %p)", i, evals[i], evals[0])
		}
	}
	if e := evals[0]; e.MicroG != goldens[0][0] || e.MicroGTMR != goldens[0][1] {
		t.Error("Eval's golden runs are not the ones the points injected into")
	}
	if c := s.CheckpointCounts(); c != want {
		t.Errorf("checkpoint counts %+v, sequential study %+v", c, want)
	}
	if c := s.SoftCheckpointCounts(); c != wantSoft {
		t.Errorf("soft checkpoint counts %+v, sequential study %+v", c, wantSoft)
	}
}

// TestVariantsBuildOnFirstUse: a variant builds a golden run only when a
// point or Eval needs it. On a fresh default study a soft point builds no
// cycle-level golden, and a plain micro point builds only its variant's
// cycle-level golden. Every variant of an app is built with the checkpoint
// spec of the app's first evaluation, so a TMR point that carries none
// still gets the spec of the plain point before it. Eval fills all six
// exported fields, reusing the golden runs the points built.
func TestVariantsBuildOnFirstUse(t *testing.T) {
	s := NewStudy(20, 1)
	built := func(e *AppEval) [4]bool {
		_, pm := e.plain.micro.ready()
		_, ps := e.plain.soft.ready()
		_, tm := e.tmr.micro.ready()
		_, ts := e.tmr.soft.ready()
		return [4]bool{pm, ps, tm, ts}
	}

	if _, err := s.Tally(PointSpec{Layer: LayerSoft, App: "VA", Kernel: "K1", Mode: softfi.SVF}); err != nil {
		t.Fatal(err)
	}
	if b := built(s.apps["VA"]); b != [4]bool{false, true, false, false} {
		t.Errorf("a soft point built [plain micro, plain soft, TMR micro, TMR soft] = %v", b)
	}
	if c := s.CheckpointCounts(); c != (microfi.CheckpointCounts{}) {
		t.Errorf("a soft point took cycle-level snapshots: %+v", c)
	}

	first := microfi.CheckpointSpec{Stride: microfi.AutoStride}
	plain := PointSpec{Layer: LayerMicro, App: "SCP", Kernel: "K1", Structure: gpu.RF, Checkpoint: &first}
	if _, err := s.Tally(plain); err != nil {
		t.Fatal(err)
	}
	e := s.apps["SCP"]
	if b := built(e); b != [4]bool{true, false, false, false} {
		t.Errorf("a plain micro point built [plain micro, plain soft, TMR micro, TMR soft] = %v", b)
	}
	g, _, err := s.Golden(plain)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.CheckpointCounts(); c.Snapshots != g.CheckpointCounts().Snapshots {
		t.Errorf("%d snapshots counted, the one golden built has %d", c.Snapshots, g.CheckpointCounts().Snapshots)
	}

	hard := PointSpec{Layer: LayerMicro, App: "SCP", Kernel: "K1", Structure: gpu.L2, Hardened: true}
	if _, err := s.Tally(hard); err != nil {
		t.Fatal(err)
	}
	gh, _, err := s.Golden(hard)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Ckpt != first {
		t.Errorf("the TMR golden was built with %+v, the first evaluation's spec is %+v", gh.Ckpt, first)
	}

	ev, err := s.Eval("SCP")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Job == nil || ev.MicroG == nil || ev.SoftG == nil || ev.JobTMR == nil || ev.MicroGTMR == nil || ev.SoftGTMR == nil {
		t.Fatalf("Eval left a field empty: %+v", ev)
	}
	if ev.MicroG != g || ev.MicroGTMR != gh || built(e) != [4]bool{true, true, true, true} {
		t.Error("Eval rebuilt golden runs the points had built")
	}
}

// TestMultiBitAblationRunsThroughStudy: the multi-bit ablation's points go
// through the study's one runner, so a RunPoint hook (avfsvf -daemon) gets
// them, at the campaign seeds the ablation has always used, carrying the
// study's sampling policy; run locally, the policy stops them early.
func TestMultiBitAblationRunsThroughStudy(t *testing.T) {
	pol := &SamplingPolicy{Margin: 0.1}
	s := NewStudy(400, 1)
	s.Sampling = pol
	type call struct {
		width int
		seed  int64
	}
	var calls []call
	s.RunPoint = func(spec PointSpec, opts campaign.Options) (campaign.Tally, error) {
		if spec.Sampling != pol || opts.Runs != 400 {
			t.Errorf("width %d: sampling %+v, %d runs", spec.faultSpec().Width, spec.Sampling, opts.Runs)
		}
		calls = append(calls, call{spec.faultSpec().Width, opts.Seed})
		return campaign.Tally{N: 1, Counts: [faults.NumOutcomes]int{faults.SDC: 1}}, nil
	}
	rows, _, err := s.MultiBitAblation("VA", "K1", gpu.RF, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// the seeds of the ablation's campaigns before they were study points
	want := []call{{1, 385629246}, {2, 335296389}, {4, 301741151}}
	if len(calls) != len(want) {
		t.Fatalf("the hook ran %d points, want %d", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("point %d: %+v, want %+v", i, calls[i], want[i])
		}
		if math.Abs(rows[i].SDC-0.2188) > 5e-5 { // the hook's all-SDC tally × VA/K1's RF derating factor
			t.Errorf("point %d: SDC %v is not the hook's tally derated", i, rows[i].SDC)
		}
	}

	local := NewStudy(400, 1)
	local.Sampling = pol
	local.Counters = &adaptive.Counters{}
	if _, _, err := local.MultiBitAblation("VA", "K1", gpu.RF, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if c := local.Counters; c.Saved.Load() == 0 || c.Simulated.Load()+c.Pruned.Load()+c.Saved.Load() != 800 {
		t.Errorf("the sampling policy did not stop the ablation early: %d simulated, %d pruned, %d saved",
			c.Simulated.Load(), c.Pruned.Load(), c.Saved.Load())
	}
}

// TestUnknownKernel: a point naming a kernel its application does not have
// — as the point's kernel or as one it hardens — is an error, on either
// layer, and memoises no tally.
func TestUnknownKernel(t *testing.T) {
	s := NewStudy(20, 1)
	for _, spec := range []PointSpec{
		{Layer: LayerMicro, App: "VA", Kernel: "K9", Structure: gpu.RF},
		{Layer: LayerSoft, App: "VA", Kernel: "K9", Mode: softfi.SVF},
		{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF, Harden: []string{"K9"}},
		{Layer: LayerMicro, App: "VA", Kernel: "vote", Structure: gpu.RF, Hardened: true},
	} {
		tl, err := s.Tally(spec)
		if err == nil || !strings.Contains(err.Error(), "VA has no kernel") {
			t.Errorf("%+v: tally %+v, error %v", spec, tl, err)
		}
	}
	if len(s.tallies) != 0 {
		t.Errorf("%d tallies memoised", len(s.tallies))
	}
}

// TestEvalFailureAndUnknownApp: a golden run that cannot be built surfaces
// the same error to every caller, concurrent or later, and an unknown app
// name leaves the study's maps as they were.
func TestEvalFailureAndUnknownApp(t *testing.T) {
	s := NewStudy(10, 1)
	if _, err := s.Eval("no-such-app"); err == nil {
		t.Fatal("unknown app evaluated")
	}
	if _, err := s.Tally(PointSpec{Layer: LayerMicro, App: "no-such-app", Kernel: "K1"}); err == nil {
		t.Fatal("unknown app tallied")
	}
	if len(s.apps) != 0 || len(s.tallies) != 0 {
		t.Errorf("unknown app grew the maps: %d apps, %d tallies", len(s.apps), len(s.tallies))
	}

	s.Cfg.RFRegsPerSM = 8 // no CTA fits: the golden run fails
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Eval("VA")
		}(i)
	}
	wg.Wait()
	_, later := s.Eval("VA")
	for i, err := range append(errs, later) {
		if err == nil || err != errs[0] {
			t.Errorf("caller %d: error %v, first caller's %v", i, err, errs[0])
		}
	}
	if c := s.CheckpointCounts(); c != (microfi.CheckpointCounts{}) {
		t.Errorf("a failed build is counted: %+v", c)
	}
}

// TestPruneFollowsPointSpec: a point prunes when its own effective
// checkpoint spec is enabled, whatever spec its app's golden runs were
// built with: an enabled point prunes on brute-force golden runs, and a
// brute-force point prunes nothing on checkpointed ones.
func TestPruneFollowsPointSpec(t *testing.T) {
	pruned := func(s *Study, ck *microfi.CheckpointSpec) int64 {
		s.Counters = &adaptive.Counters{}
		fn, err := s.PointExperiment(PointSpec{Layer: LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF, Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		campaign.Run(campaign.Options{Runs: 40, Seed: 1}, fn)
		return s.Counters.Pruned.Load()
	}
	brute, def := bruteStudy(40, 1), NewStudy(40, 1)
	if n := pruned(brute, nil); n != 0 {
		t.Errorf("a brute-force point pruned %d runs", n)
	}
	if n := pruned(brute, &microfi.DefaultCheckpoint); n == 0 {
		t.Error("an enabled point on brute-force golden runs pruned nothing")
	}
	if n := pruned(def, nil); n == 0 {
		t.Error("a default point pruned nothing")
	}
	if n := pruned(def, &microfi.CheckpointSpec{}); n != 0 {
		t.Errorf("a brute-force point on checkpointed golden runs pruned %d runs", n)
	}
}
