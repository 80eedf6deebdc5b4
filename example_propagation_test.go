package gpurel_test

import (
	"fmt"

	"gpurel"
)

// ExampleStudy_RunPropagationStudy validates the taint-based SDC prediction
// against real bit-30 destination flips at the same sites (the §VI
// future-work experiment, Trident-style). On BFS it misses SDCs: the
// tracker follows neither branch-induced flow nor host steps.
func ExampleStudy_RunPropagationStudy() {
	study := gpurel.NewStudy(100, 1)
	ps, _, err := study.RunPropagationStudy("BFS", 30)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s accuracy %.1f%%: SDC %d/%d predicted, %d false alarms, %d missed, %d crashed\n",
		ps.App, 100*ps.Accuracy(), ps.TruePos, ps.TruePos+ps.FalseNeg, ps.FalsePos, ps.FalseNeg, ps.Crashes)
	// Output:
	// BFS accuracy 77.8%: SDC 0/3 predicted, 1 false alarms, 3 missed, 12 crashed
}
