package sim

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gpurel/internal/gpu"
	"gpurel/internal/pages"
)

// The dirty-bit soundness audit. Copy-on-write capture shares, and restore
// and join skip, every page whose dirty bit is clear, on the promise that
// such a page still equals the provenance base's page byte for byte. The
// audit checks that promise directly each time it is about to be trusted:
// installed through dirtyAudit, it compares every clean register-file page,
// shared-memory page, device-memory page and cache set (line metadata and
// the data of invalid lines included) against the runner's base snapshot.

// auditDirty runs f with the audit installed on every sim.Run in the
// process, including runs started by importing packages and their worker
// goroutines, and returns how many audits ran and the first violation.
func auditDirty(f func()) (int64, error) {
	var (
		n     atomic.Int64
		mu    sync.Mutex
		first error
	)
	dirtyAudit = func(r *runner) {
		n.Add(1)
		if err := uncleanPage(r); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	}
	defer func() { dirtyAudit = nil }()
	f()
	return n.Load(), first
}

// uncleanPage returns an error naming the first page whose dirty bit is
// clear although it differs from the runner's base snapshot, or nil.
func uncleanPage(r *runner) error {
	base := r.baseSnap
	at := fmt.Sprintf("cycle %d, base cycle %d", r.cycle, base.cycle)
	for i, a := range r.arrays {
		if p := changedUnmarked(a.Data, base.arrays[i], func(p, _ int) bool { return a.Dirty().Has(p) }); p >= 0 {
			return fmt.Errorf("%s: SM %d %s page %d changed unmarked", at, i/2, [2]string{"RF", "SMEM"}[i%2], p)
		}
	}
	for i, c := range r.caches {
		if s := c.UnmarkedDiff(&base.caches[i]); s >= 0 {
			return fmt.Errorf("%s: %s set %d changed unmarked", at, c.Name, s)
		}
	}
	dirty := map[int]bool{}
	r.mem.DirtyPages(func(lo, hi uint32) { dirty[int(lo)] = true })
	if p := changedUnmarked(r.mem.PeekBytes(0, uint32(r.mem.Size())), base.dmem.Pages(), func(_, lo int) bool { return dirty[lo] }); p >= 0 {
		return fmt.Errorf("%s: device page %d changed unmarked", at, p)
	}
	return nil
}

// changedUnmarked returns the first page of the saved table t that differs
// from the live bytes data although dirty, asked with the page's index and
// first byte, reports it clean; or -1.
func changedUnmarked(data []byte, t pages.Table[pages.Block], dirty func(p, lo int) bool) int {
	lo := 0
	for p, pg := range t {
		b := pg.Bytes()
		if !dirty(p, lo) && !bytes.Equal(data[lo:lo+len(b)], b) {
			return p
		}
		lo += len(b)
	}
	return -1
}

// TestDirtyAuditCatchesUnmarkedWrites: the audit is not vacuous for any
// kind of array. A write that bypasses marking — a register poked outside
// every warp's window, a shared-memory byte outside every CTA's allocation,
// a cache line's data poked through LineAt instead of FlipBit, a
// device-memory byte written through PeekBytes — between two captures is
// reported at the second.
func TestDirtyAuditCatchesUnmarkedWrites(t *testing.T) {
	const n = 512
	cfg := gpu.Volta()
	job, _, _ := buildJob(n, addOne(n), 4, 128)
	golden := Run(job, cfg, Options{})
	stride := golden.Cycles/8 + 1
	for _, c := range []struct {
		name string
		poke func(m *Machine)
	}{
		{"RF", func(m *Machine) { m.SMs[0].RF[len(m.SMs[0].RF)-1] ^= 1 }},
		{"SMEM", func(m *Machine) { m.SMs[0].Smem[len(m.SMs[0].Smem)-1] ^= 1 }},
		{"L1D", func(m *Machine) { m.SMs[0].L1D.LineAt(m.SMs[0].L1D.NumLines() - 1).Data[0] ^= 1 }},
		{"L2", func(m *Machine) { m.L2.LineAt(m.L2.NumLines() - 1).Data[0] ^= 1 }},
		{"device", func(m *Machine) { m.Mem.PeekBytes(0, 1)[0] ^= 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			audits, err := auditDirty(func() {
				Run(job, cfg, Options{Checkpoint: NewSnapshotSet(stride, 0), AtCycle: 2 * stride, OnCycle: c.poke})
			})
			if audits == 0 || err == nil {
				t.Fatalf("%d audits, error %v: an unmarked %s write went unreported", audits, err, c.name)
			}
			t.Log(err)
		})
	}
}
