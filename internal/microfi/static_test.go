package microfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/kernels"
)

// TestStaticIntervalPruneProperty is the property-test satellite: on every
// shipped app × seed, the interval-based InjectStatic classifies
// bit-identically to brute-force Inject (RF and SMEM).
func TestStaticIntervalPruneProperty(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			si, err := TraceStatic(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
				tgt := Target{Structure: st}
				var brute, static [faults.NumOutcomes]int
				intervalPruned := 0
				seeds := int64(10)
				if st == gpu.SMEM {
					seeds = 6
				}
				for seed := int64(0); seed < seeds; seed++ {
					want := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
					got, pruned := InjectStatic(job, g, si, tgt, rand.New(rand.NewSource(seed)))
					if got != want {
						t.Fatalf("%s seed %d: interval prune altered the outcome: %+v (pruned=%v) != %+v",
							st, seed, got, pruned, want)
					}
					brute[want.Outcome]++
					static[got.Outcome]++
					if pruned {
						intervalPruned++
					}
				}
				if brute != static {
					t.Fatalf("%s: campaign tallies differ: brute=%v static=%v", st, brute, static)
				}
				t.Logf("%s: interval pruned %d/%d", st, intervalPruned, seeds)
			}
		})
	}
}

// TestPrunersAgreeOnRF replays the draws behind the ledger's two prune rates
// (bench probePruners: seed i*1000+run, 12 per kernel, all 23 kernels) and
// separates what that probe pools. On the register file both pruners read
// the same interval map, so they must decide every draw alike. The counts
// are pinned because docs/static.md quotes them: 251 of 276 RF draws for
// both pruners (as many as the lane-by-lane liveness trace pruned; the
// intervals pruned 250 while they counted both operands of K-Means' SEL as
// read), and 238 of 276 SMEM draws (172 while shared memory was tracked
// from each instruction's static address instead of the recorded
// accesses).
func TestPrunersAgreeOnRF(t *testing.T) {
	const drawsPerKernel = 12
	cfg := gpu.Volta()
	var draws, rfStatic, rfLive, smemStatic int
	for i, app := range kernels.All() {
		job := app.Build()
		si, err := TraceStatic(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := ace.TraceRF(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GoldenCheckpointed(job, cfg, CheckpointSpec{Stride: AutoStride, Converge: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range app.Kernels {
			for run := 0; run < drawsPerKernel; run++ {
				seed := int64(i*1000 + run)
				draws++
				rf := Target{Structure: gpu.RF, Kernel: k}
				_, static := InjectStatic(job, g, si, rf, rand.New(rand.NewSource(seed)))
				_, live := InjectPruned(job, g, lv, rf, rand.New(rand.NewSource(seed)))
				if static != live {
					t.Errorf("%s/%s seed %d: InjectStatic pruned=%v, InjectPruned pruned=%v", app.Name, k, seed, static, live)
				}
				if static {
					rfStatic++
				}
				if live {
					rfLive++
				}
				smem := Target{Structure: gpu.SMEM, Kernel: k}
				if _, pruned := InjectStatic(job, g, si, smem, rand.New(rand.NewSource(seed))); pruned {
					smemStatic++
				}
			}
		}
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(draws) }
	t.Logf("%d draws per structure: RF intervals prune %d (%.1f%%), RF liveness %d (%.1f%%); SMEM intervals %d (%.1f%%); RF+SMEM intervals pooled %.1f%%",
		draws, rfStatic, pct(rfStatic), rfLive, pct(rfLive), smemStatic, pct(smemStatic), pct(rfStatic+smemStatic)/2)
	if draws != 276 || rfStatic != 251 || rfLive != 251 || smemStatic != 238 {
		t.Errorf("pruned RF %d (intervals) and %d (liveness), SMEM %d, of %d draws each; pinned 251, 251, 238 of 276",
			rfStatic, rfLive, smemStatic, draws)
	}
}

// leftoverSmemJob is a job whose CTAs read the shared memory an earlier CTA
// on the same SM left behind before they store their own: each thread loads
// its word, overwrites it with its global index and writes what it loaded
// to the output. kasm lints registers only, so it accepts the kernel. A
// value a CTA stores is never read by that CTA, yet the next CTA placed on
// the block reads it.
func leftoverSmemJob() *device.Job {
	b := kasm.New("leftover")
	tid := b.S2R(isa.SRTidX)
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), tid)
	addr := b.Shl(tid, 2)
	old := b.Lds(addr, 0)
	b.Sts(addr, 0, i)
	b.Stg(b.IScAdd(i, b.Param(0), 2), 0, old)
	prog := b.MustBuild()

	const grid, block = 256, 32
	m := device.NewMemory(1 << 16)
	out := m.Alloc("out", 4*grid*block)
	return &device.Job{
		Name: "leftover", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: grid, GridY: 1, BlockX: block, BlockY: 1,
			SmemBytes: 4 * block, Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * grid * block}},
	}
}

// TestStaticPruneLeftoverSmem: the interval map lets a CTA's allocation
// kill what the previous occupant left in shared memory, which is unsound
// for a kernel that reads those leftovers. The golden run's guard catches
// it, and InjectStatic then simulates every run, so its tally equals brute
// force run for run.
func TestStaticPruneLeftoverSmem(t *testing.T) {
	cfg := gpu.Volta()
	job := leftoverSmemJob()
	si, err := TraceStatic(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Res.FreeDead {
		t.Fatal("guard holds on a kernel that reads leftover shared memory")
	}
	tgt := Target{Structure: gpu.SMEM}
	var brute, static [faults.NumOutcomes]int
	for seed := int64(0); seed < 40; seed++ {
		want := Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
		got, pruned := InjectStatic(job, g, si, tgt, rand.New(rand.NewSource(seed)))
		if got != want || pruned {
			t.Errorf("seed %d: InjectStatic %+v (pruned=%v), brute force %+v", seed, got, pruned, want)
		}
		brute[want.Outcome]++
		static[got.Outcome]++
	}
	if brute != static {
		t.Fatalf("tallies differ: brute=%v static=%v", brute, static)
	}
	if brute[faults.SDC] == 0 {
		t.Fatalf("no run reached the leftover reads (tally %v): the test exercises nothing", brute)
	}
}
