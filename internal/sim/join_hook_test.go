package sim

import "sync/atomic"

// countJoins installs joinHook for the duration of f and returns how many
// converging runs joined golden, each at a grid cycle whose snapshot its
// state matched.
func countJoins(f func()) int64 {
	var n atomic.Int64
	joinHook = func() { n.Add(1) }
	defer func() { joinHook = nil }()
	f()
	return n.Load()
}
