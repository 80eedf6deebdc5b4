package sim

// The reference core's switch, for this directory's external tests
// (package sim_test), which drive it through microfi and adaptive.

// OnReference runs f with every sim.Run on the reference core.
var OnReference = onReference

// ReferenceCycles returns how many SM-cycles the reference core has executed
// in this process.
func ReferenceCycles() int64 { return referenceCycles.Load() }

// TraceOracle runs a job on the reference core and returns the register
// lifetimes its per-access register stream records (see rf_oracle_test.go)
// with the run's result.
var TraceOracle = traceOracle

// AuditDirty runs f with the dirty-bit soundness audit installed (see
// dirty_audit_test.go) and returns how many audits ran and the first page
// found clean but changed.
var AuditDirty = auditDirty

// CountJoins runs f with every join of a converging run observed and
// returns how many happened (see join_hook_test.go).
var CountJoins = countJoins

// TraceCacheOracle runs a job on the reference core and returns the cache
// data record its global-memory accesses and the caches' states derive (see
// cache_oracle_test.go) with the run's result.
var TraceCacheOracle = traceCacheOracle
