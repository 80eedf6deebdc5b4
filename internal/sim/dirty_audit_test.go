package sim

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gpurel/internal/gpu"
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
	for i, sm := range r.sms {
		bs := &base.sms[i]
		for p, pg := range bs.rfPages {
			lo := p * rfPageWords
			if !dirtyBit(sm.rfDirty, p) && !slices.Equal(sm.RF[lo:lo+len(pg)], pg) {
				return fmt.Errorf("%s: SM %d RF page %d changed unmarked", at, i, p)
			}
		}
		for p, pg := range bs.smPages {
			lo := p * smPageBytes
			if !dirtyBit(sm.smDirty, p) && !bytes.Equal(sm.Smem[lo:lo+len(pg)], pg) {
				return fmt.Errorf("%s: SM %d SMEM page %d changed unmarked", at, i, p)
			}
		}
		if s := sm.L1D.UnmarkedDiff(&bs.l1d); s >= 0 {
			return fmt.Errorf("%s: SM %d L1D set %d changed unmarked", at, i, s)
		}
		if s := sm.L1T.UnmarkedDiff(&bs.l1t); s >= 0 {
			return fmt.Errorf("%s: SM %d L1T set %d changed unmarked", at, i, s)
		}
	}
	if s := r.l2.UnmarkedDiff(&base.l2); s >= 0 {
		return fmt.Errorf("%s: L2 set %d changed unmarked", at, s)
	}
	dirty := map[uint32]bool{}
	r.mem.DirtyPages(func(lo, hi uint32) { dirty[lo] = true })
	var lo uint32
	for p, pg := range base.dmem.Pages() {
		if !dirty[lo] && !bytes.Equal(r.mem.PeekBytes(lo, uint32(len(pg))), pg) {
			return fmt.Errorf("%s: device page %d changed unmarked", at, p)
		}
		lo += uint32(len(pg))
	}
	return nil
}

// TestDirtyAuditCatchesUnmarkedWrites: the audit is not vacuous. A write
// that bypasses marking — a register poked outside every warp's window, a
// cache line's data poked through LineAt instead of FlipBit — between two
// captures is reported at the second.
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
		{"L2", func(m *Machine) { m.L2.LineAt(m.L2.NumLines() - 1).Data[0] ^= 1 }},
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
