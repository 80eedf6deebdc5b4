package microfi

import (
	"math/rand"
	"testing"

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
