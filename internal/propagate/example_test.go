package propagate_test

import (
	"fmt"

	"gpurel/internal/funcsim"
	"gpurel/internal/kernels"
	"gpurel/internal/propagate"
)

// ExampleAnalyze seeds taint at a few dynamic destination writes of
// HotSpot — the same sites a software-level injection would flip — and
// reports how far each spreads and whether it reaches the output.
func ExampleAnalyze() {
	app, err := kernels.ByName("HotSpot")
	if err != nil {
		panic(err)
	}
	job := app.Build()
	g := funcsim.Run(job, funcsim.Options{})
	fmt.Printf("%s: %d injectable destination writes\n", app.Name, g.DstCands)
	for k := int64(0); k < 4; k++ {
		idx := (k*2654435761 + 17) % g.DstCands
		r, err := propagate.Analyze(job, propagate.Seed{Index: idx})
		if err != nil {
			panic(err)
		}
		fmt.Printf("site %6d: %3d tainted instructions, %2d threads, %3d global bytes -> %s\n",
			idx, r.TaintedInstrs, r.TaintedThreads, r.TaintedGlobalBytes, r.PredictedOutcome)
	}
	// Output:
	// HotSpot: 434080 injectable destination writes
	// site     17:  17 tainted instructions,  1 threads,   0 global bytes -> Masked
	// site  36578: 676 tainted instructions, 37 threads, 112 global bytes -> SDC
	// site  73139:   4 tainted instructions,  1 threads,   0 global bytes -> Masked
	// site 109700: 637 tainted instructions, 30 threads, 120 global bytes -> SDC
}
