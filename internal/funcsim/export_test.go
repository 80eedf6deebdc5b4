package funcsim

// The reference executor's switch, for this directory's external tests
// (package funcsim_test), which drive it through softfi.

// OnReference runs f with every funcsim.Run on the reference executor.
var OnReference = onReference

// ReferenceSteps returns how many warp-instructions the reference executor
// has stepped in this process.
func ReferenceSteps() int64 { return referenceSteps.Load() }

// RaceDetector reports a test binary built with -race.
const RaceDetector = raceDetector

// AuditDiffs checks every probed boundary's diff against the whole memory
// until the returned stop is called; stop returns the boundaries checked.
var AuditDiffs = auditDiffs
