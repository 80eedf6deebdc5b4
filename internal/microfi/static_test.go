package microfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
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
// read), and 172 of 276 SMEM draws.
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
	if draws != 276 || rfStatic != 251 || rfLive != 251 || smemStatic != 172 {
		t.Errorf("pruned RF %d (intervals) and %d (liveness), SMEM %d, of %d draws each; pinned 251, 251, 172 of 276",
			rfStatic, rfLive, smemStatic, draws)
	}
}
