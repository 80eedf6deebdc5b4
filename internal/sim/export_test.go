package sim

// The reference core's switch, for this directory's external tests
// (package sim_test), which drive it through microfi and adaptive.

// OnReference runs f with every sim.Run on the reference core.
var OnReference = onReference

// ReferenceCycles returns how many SM-cycles the reference core has executed
// in this process.
func ReferenceCycles() int64 { return referenceCycles.Load() }
