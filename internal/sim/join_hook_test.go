package sim

import (
	"sync/atomic"

	"gpurel/internal/mem"
)

// JoinCounts tallies the joins of converging runs by cause.
type JoinCounts struct {
	// Grid joins matched a snapshot at a grid cycle.
	Grid int64
	// Cache-watch joins, by verdict: the byte was overwritten by a store,
	// its frame refilled, or its line invalidated (or invalid when
	// flipped).
	Stored, Refilled, Invalid int64
}

// countJoins installs joinHook for the duration of f.
func countJoins(f func()) JoinCounts {
	var n [4]atomic.Int64
	joinHook = func(r *runner) {
		switch r.watch {
		case mem.WatchStored:
			n[1].Add(1)
		case mem.WatchRefilled:
			n[2].Add(1)
		case mem.WatchInvalid:
			n[3].Add(1)
		default:
			n[0].Add(1)
		}
	}
	defer func() { joinHook = nil }()
	f()
	return JoinCounts{Grid: n[0].Load(), Stored: n[1].Load(), Refilled: n[2].Load(), Invalid: n[3].Load()}
}
