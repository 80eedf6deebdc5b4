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
// separates what that probe pools. On the register file the two pruners are
// asked about the same sites, and the static interval map over-approximates
// dynamic liveness, so every draw the interval engine prunes the liveness map
// must prune too — per draw, not on average. Shared memory has only the
// interval engine. The per-structure rates are logged because docs/static.md
// and ROADMAP quote them.
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
				if static && !live {
					t.Errorf("%s/%s seed %d: pruned by the static intervals but live in the dynamic map", app.Name, k, seed)
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
	if rfLive == 0 || rfStatic == 0 || smemStatic == 0 {
		t.Error("a pruner pruned nothing: the replay no longer exercises it")
	}
}
