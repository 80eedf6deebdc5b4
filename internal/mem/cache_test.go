package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gpurel/internal/device"
)

func newHier() (*Hierarchy, *device.Memory, *int64, *int64) {
	dram := device.NewMemory(1 << 20)
	l1d := NewCache("L1D", 1024, 64, 4, 8)
	l1t := NewCache("L1T", 512, 64, 4, 8)
	l2 := NewCache("L2", 4096, 64, 8, 32)
	var rd, wr int64
	h := &Hierarchy{L1D: l1d, L1T: l1t, L2: l2, DRAMRead: &rd, DRAMWrite: &wr,
		L1Lat: 32, L2Lat: 190, DRAMLat: 420}
	return h, dram, &rd, &wr
}

func TestLoadMissThenHit(t *testing.T) {
	h, dram, rd, _ := newHier()
	dram.PokeU32(0x1000, 0xDEADBEEF)
	v, lat1 := h.Load(dram, 0x1000, false, true, 0)
	if v != 0xDEADBEEF {
		t.Fatalf("load = %#x", v)
	}
	if lat1 <= h.L1Lat {
		t.Errorf("cold miss latency %d should exceed L1 hit latency", lat1)
	}
	if *rd != 64 {
		t.Errorf("DRAM read = %d, want one line (64)", *rd)
	}
	v, lat2 := h.Load(dram, 0x1004, false, true, 100)
	if v != 0 || lat2 != h.L1Lat {
		t.Errorf("same-line hit: v=%d lat=%d", v, lat2)
	}
	if h.L1D.Stats.Accesses != 2 || h.L1D.Stats.Misses != 1 {
		t.Errorf("stats = %+v", h.L1D.Stats)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	h, dram, _, _ := newHier()
	h.Store(dram, 0x2000, 7, true, 0)
	// L1D must not allocate on a store miss
	if ln := h.L1D.lookup(0x2000); ln != nil {
		t.Error("L1D allocated a line on store miss (should be no-write-allocate)")
	}
	// but L2 must hold the dirty line
	ln := h.L2.lookup(0x2000)
	if ln == nil || !ln.Dirty {
		t.Fatal("L2 must write-allocate and mark dirty")
	}
	// DRAM is stale until writeback
	if dram.PeekU32(0x2000) == 7 {
		t.Error("write-back L2 must not eagerly update DRAM")
	}
	h.L2.FlushTo(dram, 0)
	if dram.PeekU32(0x2000) != 7 {
		t.Error("flush must write the dirty line back")
	}
	if ln.Dirty {
		t.Error("flush must clean the line")
	}
}

func TestStoreUpdatesL1OnHit(t *testing.T) {
	h, dram, _, _ := newHier()
	dram.PokeU32(0x3000, 1)
	h.Load(dram, 0x3000, false, true, 0) // fill L1
	h.Store(dram, 0x3000, 99, true, 10)
	v, _ := h.Load(dram, 0x3000, false, true, 20)
	if v != 99 {
		t.Errorf("load after store = %d, want 99", v)
	}
}

// TestCorruptedCleanLineMasking is the §V-B masking scenario: a bit flip in
// a clean (write-through) L1 line is silently discarded on eviction and the
// next load refetches the correct value from L2.
func TestCorruptedCleanLineMasking(t *testing.T) {
	h, dram, _, _ := newHier()
	dram.PokeU32(0x4000, 0x55)
	h.Load(dram, 0x4000, false, true, 0)
	// flip a bit in the L1 copy
	for i := 0; i < h.L1D.NumLines(); i++ {
		ln := h.L1D.LineAt(i)
		if ln.Valid && ln.Addr == 0x4000 {
			h.L1D.FlipBit(i, 0, 1)
		}
	}
	v, _ := h.Load(dram, 0x4000, false, true, 10)
	if v != 0x55^0x02 {
		t.Fatalf("corrupted hit should observe the flip, got %#x", v)
	}
	// evict by invalidation (write-through lines are never dirty)
	h.L1D.InvalidateAll()
	v, _ = h.Load(dram, 0x4000, false, true, 20)
	if v != 0x55 {
		t.Errorf("after eviction the corruption must be masked, got %#x", v)
	}
}

// TestCorruptedDirtyL2Propagates: a flip in a dirty L2 line reaches DRAM on
// writeback — the unmaskable case behind residual TMR SDCs (§IV-B).
func TestCorruptedDirtyL2Propagates(t *testing.T) {
	h, dram, _, _ := newHier()
	h.Store(dram, 0x5000, 0x0F, true, 0)
	for i := 0; i < h.L2.NumLines(); i++ {
		ln := h.L2.LineAt(i)
		if ln.Valid && ln.Addr == 0x5000 {
			h.L2.FlipBit(i, 0, 7)
		}
	}
	h.L2.FlushTo(dram, 0)
	if dram.PeekU32(0x5000) != 0x0F^0x80 {
		t.Errorf("dirty corrupted line must propagate to DRAM, got %#x", dram.PeekU32(0x5000))
	}
}

func TestLRUEviction(t *testing.T) {
	h, dram, _, _ := newHier()
	// L1D: 1024 B / 64 B = 16 lines, 4 ways → 4 sets. Fill one set 5×.
	// addresses mapping to set 0: multiples of 64*4=256
	addrs := []uint32{0x1000, 0x1100, 0x1200, 0x1300, 0x1400}
	for i, a := range addrs {
		h.Load(dram, a, false, true, int64(i))
	}
	if h.L1D.lookup(0x1000) != nil {
		t.Error("LRU line must have been evicted")
	}
	if h.L1D.lookup(0x1400) == nil || h.L1D.lookup(0x1100) == nil {
		t.Error("recently used lines must survive")
	}
}

func TestTexturePathSeparate(t *testing.T) {
	h, dram, _, _ := newHier()
	dram.PokeU32(0x6000, 11)
	h.Load(dram, 0x6000, true, true, 0)
	if h.L1T.Stats.Accesses != 1 || h.L1D.Stats.Accesses != 0 {
		t.Errorf("texture load must use L1T: L1T=%+v L1D=%+v", h.L1T.Stats, h.L1D.Stats)
	}
}

func TestPendingHitsAndReservFails(t *testing.T) {
	c := NewCache("c", 1024, 64, 4, 2)
	lat, pending := c.trackFill(0x100, 0, 100)
	if pending || lat != 100 {
		t.Fatalf("first fill: lat=%d pending=%v", lat, pending)
	}
	lat, pending = c.trackFill(0x100, 10, 100)
	if !pending || lat != 90 {
		t.Errorf("pending hit: lat=%d pending=%v", lat, pending)
	}
	c.trackFill(0x200, 10, 100)
	// MSHRs (2) now full → reservation fail
	_, _ = c.trackFill(0x300, 20, 100)
	if c.Stats.ReservFails != 1 {
		t.Errorf("reservation fails = %d, want 1", c.Stats.ReservFails)
	}
	if c.Stats.PendingHits != 1 {
		t.Errorf("pending hits = %d, want 1", c.Stats.PendingHits)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry must panic")
		}
	}()
	NewCache("bad", 100, 64, 3, 4)
}

// TestCoherenceProperty: any random sequence of loads and stores through the
// hierarchy must read the same values as a flat reference memory.
func TestCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, dram, _, _ := newHier()
		ref := map[uint32]uint32{}
		const base, span = 0x1000, 0x2000
		for i := 0; i < 500; i++ {
			addr := base + uint32(rng.Intn(span/4))*4
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				h.Store(dram, addr, v, true, int64(i))
				ref[addr] = v
			} else {
				got, _ := h.Load(dram, addr, false, true, int64(i))
				if got != ref[addr] {
					return false
				}
			}
		}
		// after a full flush, DRAM must agree with the reference
		h.L2.FlushTo(dram, 0)
		for a, v := range ref {
			if dram.PeekU32(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDataBitsAndFlip(t *testing.T) {
	c := NewCache("c", 1024, 64, 4, 4)
	if c.DataBits() != 1024*8 {
		t.Errorf("DataBits = %d", c.DataBits())
	}
	before := c.LineAt(3).Data[5]
	c.FlipBit(3, 5, 2)
	if c.LineAt(3).Data[5] != before^4 {
		t.Error("FlipBit must XOR the selected bit")
	}
	c.FlipBit(3, 5, 2)
	if c.LineAt(3).Data[5] != before {
		t.Error("double flip must restore the byte")
	}
}

// pageCopy deep-copies every page of a saved state, so a test can check
// later that the state itself never changed.
func pageCopy(st *CacheState) []SetPage {
	out := make([]SetPage, len(st.sets))
	for s, pg := range st.sets {
		out[s] = SetPage{meta: slices.Clone(pg.meta), data: slices.Clone(pg.data)}
	}
	return out
}

func samePages(st *CacheState, want []SetPage) bool {
	for s, pg := range st.sets {
		if !slices.Equal(pg.meta, want[s].meta) || !bytes.Equal(pg.data, want[s].data) {
			return false
		}
	}
	return len(st.sets) == len(want)
}

// TestStateRoundTrip: Save, then flip a bit, fill lines and store, then Load
// gives back a cache equal to the saved state; and the saved state itself is
// byte-unchanged by the mutations, so the snapshot's pages never alias the
// live cache's slab.
func TestStateRoundTrip(t *testing.T) {
	h, dram, _, _ := newHier()
	for a := uint32(0x1000); a < 0x1400; a += 4 {
		dram.PokeU32(a, a*7)
	}
	for a := uint32(0x1000); a < 0x1200; a += 64 {
		h.Load(dram, a, false, true, int64(a))
		h.Store(dram, a+4, a, true, int64(a))
	}
	var st CacheState
	h.L2.SaveState(&st, nil)
	pages := pageCopy(&st)
	if !h.L2.StateEqual(&st, nil) {
		t.Fatal("a cache differs from its own saved state")
	}

	h.L2.FlipBit(0, 3, 5)
	for a := uint32(0x1200); a < 0x1400; a += 64 { // fills of lines not yet held
		h.Load(dram, a, false, true, 10000)
	}
	h.Store(dram, 0x1008, 0xFFFFFFFF, true, 10001)
	if h.L2.StateEqual(&st, nil) {
		t.Fatal("mutated cache still equals the saved state")
	}
	if !samePages(&st, pages) {
		t.Fatal("mutating the cache changed a saved state")
	}

	h.L2.LoadState(&st, nil)
	if !h.L2.StateEqual(&st, nil) {
		t.Fatal("Load did not restore the saved state")
	}
	for i := range h.L2.lines {
		ln := &h.L2.lines[i]
		pg, w := st.sets[i/h.L2.ways], i%h.L2.ways
		if &ln.Data[0] != &h.L2.data[i*64] || !bytes.Equal(ln.Data, pg.data[w*64:(w+1)*64]) {
			t.Fatalf("line %d: data not restored into its slab slot", i)
		}
	}
	// the restored cache must not share storage with the state either
	h.L2.FlipBit(0, 0, 0)
	if !samePages(&st, pages) {
		t.Fatal("mutating a restored cache changed the saved state")
	}
}

// TestStateEqualIgnoresInvalidData: two states differing only in the bytes
// of an invalid line compare equal; the same difference in a valid line
// does not.
func TestStateEqualIgnoresInvalidData(t *testing.T) {
	h, dram, _, _ := newHier()
	h.Load(dram, 0x1000, false, true, 0)
	var st CacheState
	h.L2.SaveState(&st, nil)
	valid := -1
	for i := range h.L2.lines {
		if h.L2.lines[i].Valid {
			valid = i
		}
	}
	invalid := (valid + 1) % h.L2.NumLines()
	h.L2.FlipBit(invalid, 0, 0)
	if !h.L2.StateEqual(&st, nil) {
		t.Error("a flip in an invalid line broke equality")
	}
	h.L2.FlipBit(valid, 0, 0)
	if h.L2.StateEqual(&st, nil) {
		t.Error("a flip in a valid line kept equality")
	}
}

// dirtySets lists the sets whose snapshot bit is set.
func dirtySets(c *Cache) []int {
	var out []int
	for s := 0; s < c.sets; s++ {
		if c.dirty.Has(s) {
			out = append(out, s)
		}
	}
	return out
}

// warmHier returns a hierarchy whose three caches hold a mix of valid,
// dirty and invalid lines, with every snapshot bit cleared.
func warmHier() (*Hierarchy, *device.Memory) {
	h, dram, _, _ := newHier()
	warm(h, dram)
	for _, c := range []*Cache{h.L1D, h.L1T, h.L2} {
		c.ClearPageDirty()
	}
	return h, dram
}

// warm fills the caches of h during cycles up to 0x1400.
func warm(h *Hierarchy, dram *device.Memory) {
	for a := uint32(0x1000); a < 0x1800; a += 4 {
		dram.PokeU32(a, a*3)
	}
	for a := uint32(0x1000); a < 0x1400; a += 64 {
		h.Load(dram, a, false, true, int64(a))
		h.Load(dram, a+0x400, true, true, int64(a))
	}
	h.Store(dram, 0x1040, 7, true, 0x1400)
}

// lineOf returns the index of the valid line holding addr, or -1.
func lineOf(c *Cache, addr uint32) int {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.Valid && ln.Addr == addr&^(c.lineSize-1) {
			return i
		}
	}
	return -1
}

// TestMutationsMarkTheirSet: every path that changes a line marks exactly
// the set it changed — fills, LRU updates, the L1D store hit, the L2 store
// that skips touch, FlipBit, SetBit, InvalidateAll, FlushTo and Reset — and
// the read-only paths mark nothing.
func TestMutationsMarkTheirSet(t *testing.T) {
	set := func(c *Cache, addr uint32) int { return c.setOf(addr &^ (c.lineSize - 1)) }
	cases := []struct {
		name  string
		cache func(h *Hierarchy) *Cache
		do    func(h *Hierarchy, dram *device.Memory)
		want  func(h *Hierarchy) []int
	}{
		{"fill", func(h *Hierarchy) *Cache { return h.L1D },
			func(h *Hierarchy, dram *device.Memory) { h.Load(dram, 0x1600, false, true, 50) },
			func(h *Hierarchy) []int { return []int{set(h.L1D, 0x1600)} }},
		{"l2-fill", func(h *Hierarchy) *Cache { return h.L2 },
			func(h *Hierarchy, dram *device.Memory) { h.Load(dram, 0x1600, false, true, 50) },
			func(h *Hierarchy) []int { return []int{set(h.L2, 0x1600)} }},
		{"touch", func(h *Hierarchy) *Cache { return h.L1T },
			func(h *Hierarchy, dram *device.Memory) { h.Load(dram, 0x1440, true, true, 50) },
			func(h *Hierarchy) []int { return []int{set(h.L1T, 0x1440)} }},
		{"l1d-store-hit", func(h *Hierarchy) *Cache { return h.L1D },
			func(h *Hierarchy, dram *device.Memory) { h.Store(dram, 0x1384, 9, true, 50) },
			func(h *Hierarchy) []int { return []int{set(h.L1D, 0x1384)} }},
		{"l2-non-first-store", func(h *Hierarchy) *Cache { return h.L2 },
			func(h *Hierarchy, dram *device.Memory) { h.Store(dram, 0x1048, 9, false, 50) },
			func(h *Hierarchy) []int { return []int{set(h.L2, 0x1048)} }},
		{"flip", func(h *Hierarchy) *Cache { return h.L2 },
			func(h *Hierarchy, dram *device.Memory) { h.L2.FlipBit(13, 2, 1) },
			func(h *Hierarchy) []int { return []int{13 / h.L2.ways} }},
		{"set-bit", func(h *Hierarchy) *Cache { return h.L1D },
			func(h *Hierarchy, dram *device.Memory) { h.L1D.SetBit(6, 2, 1, true) },
			func(h *Hierarchy) []int { return []int{6 / h.L1D.ways} }},
		{"invalidate", func(h *Hierarchy) *Cache { return h.L1D },
			func(h *Hierarchy, dram *device.Memory) { h.L1D.InvalidateAll() },
			func(h *Hierarchy) []int { return []int{0, 1, 2, 3} }},
		{"flush", func(h *Hierarchy) *Cache { return h.L2 },
			func(h *Hierarchy, dram *device.Memory) { h.L2.FlushTo(dram, 0) },
			func(h *Hierarchy) []int { return []int{set(h.L2, 0x1040)} }},
		{"reset", func(h *Hierarchy) *Cache { return h.L1T },
			func(h *Hierarchy, dram *device.Memory) { h.L1T.Reset() },
			func(h *Hierarchy) []int { return []int{0, 1} }},
		{"load-hit-not-first", func(h *Hierarchy) *Cache { return h.L1D },
			func(h *Hierarchy, dram *device.Memory) { h.Load(dram, 0x1380, false, false, 50) },
			func(h *Hierarchy) []int { return nil }},
		{"lookup", func(h *Hierarchy) *Cache { return h.L2 },
			func(h *Hierarchy, dram *device.Memory) { h.L2.lookup(0x1040) },
			func(h *Hierarchy) []int { return nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, dram := warmHier()
			cache := c.cache(h)
			var before CacheState
			cache.SaveState(&before, nil)
			c.do(h, dram)
			if got, want := dirtySets(cache), c.want(h); !slices.Equal(got, want) {
				t.Errorf("marked sets %v, want %v", got, want)
			}
			if s := cache.UnmarkedDiff(&before); s >= 0 {
				t.Errorf("set %d changed without its mark", s)
			}
		})
	}
}

// TestSaveSharesUnmarkedSets: a save against a previous state shares exactly
// the sets left unmarked since it and copies the rest; restoring a live cache
// from the shared state round-trips to StateEqual, with and without the base
// fast path; and a saved page is byte-unchanged by later mutations.
func TestSaveSharesUnmarkedSets(t *testing.T) {
	h, dram := warmHier()
	var prev CacheState
	h.L2.SaveState(&prev, nil)
	h.L2.ClearPageDirty()
	h.Store(dram, 0x1088, 5, true, 60)
	h.Load(dram, 0x1700, false, true, 61)
	h.L2.FlipBit(lineOf(h.L2, 0x11C0), 0, 3)
	marked := dirtySets(h.L2)
	if len(marked) != 3 {
		t.Fatalf("marked sets %v, want three", marked)
	}
	var st CacheState
	h.L2.SaveState(&st, &prev)
	for s, pg := range st.sets {
		if shared := pg == prev.sets[s]; shared == slices.Contains(marked, s) {
			t.Errorf("set %d: shared %v, marked %v", s, shared, slices.Contains(marked, s))
		}
	}
	pages := pageCopy(&st)

	// Restore from prev with st as the base (dirty bits relative to st),
	// then back to st from prev as the base.
	h.L2.ClearPageDirty()
	h.L2.LoadState(&prev, &st)
	if !h.L2.StateEqual(&prev, nil) {
		t.Fatal("a restore over shared pages differs from the state")
	}
	h.L2.ClearPageDirty()
	h.L2.LoadState(&st, &prev)
	if !h.L2.StateEqual(&st, &prev) || !h.L2.StateEqual(&st, nil) {
		t.Fatal("a restore back to the later state differs from it")
	}
	h.L2.ClearPageDirty()
	for a := uint32(0x1000); a < 0x1800; a += 64 {
		h.Store(dram, a, 1, true, 70)
	}
	h.L2.Reset()
	if !samePages(&st, pages) {
		t.Fatal("mutating the live cache changed a saved page")
	}
}

// TestFrameLogEvents: the data record of a cache classes a flip of a byte
// by the first event that reads or kills the byte at or after the flip's
// cycle. Each case makes one event during cycle T and queries flips at T-1,
// T and T+1: a read is seen by flips at T-1 and T, not by a flip at T+1; a
// kill ends flips at T-1 and T, and a flip at T+1 reaches a read the test
// adds at T+2 when the frame is still valid then.
func TestFrameLogEvents(t *testing.T) {
	const T = 10000
	// evict refills set lines of c through readLineL2 (L2) or loads (L1D)
	// until the line holding a is gone.
	evict := func(h *Hierarchy, dram *device.Memory, c *Cache, a uint32) {
		stride := c.lineSize * uint32(c.sets)
		for n := uint32(1); lineOf(c, a) >= 0; n++ {
			if c == h.L2 {
				h.readLineL2(dram, 0x8000+a%stride+n*stride, T)
			} else {
				h.Load(dram, 0x8000+a%stride+n*stride, false, true, T)
			}
		}
	}
	const read, kill, none = "read", "kill", "none"
	cases := []struct {
		name  string
		cache func(*Hierarchy) *Cache
		addr  uint32
		act   func(*Hierarchy, *device.Memory)
		event string
	}{
		{"load hit covering", l1d, 0x1002, func(h *Hierarchy, d *device.Memory) { h.Load(d, 0x1000, false, true, T) }, read},
		{"coalesced load hit covering", l1d, 0x1003, func(h *Hierarchy, d *device.Memory) { h.Load(d, 0x1000, false, false, T) }, read},
		{"load hit elsewhere", l1d, 0x1002, func(h *Hierarchy, d *device.Memory) { h.Load(d, 0x1004, false, true, T) }, none},
		{"L1 fill reads the L2 line", l2, 0x143c, func(h *Hierarchy, d *device.Memory) { h.Load(d, 0x1400, true, true, T) }, read},
		{"dirty L2 eviction writes back", l2, 0x1040, func(h *Hierarchy, d *device.Memory) { evict(h, d, h.L2, 0x1040) }, read},
		{"clean L2 refill", l2, 0x1000, func(h *Hierarchy, d *device.Memory) { evict(h, d, h.L2, 0x1000) }, kill},
		{"L1 refill", l1d, 0x1000, func(h *Hierarchy, d *device.Memory) { evict(h, d, h.L1D, 0x1000) }, kill},
		{"L1D store covering", l1d, 0x1001, func(h *Hierarchy, d *device.Memory) { h.Store(d, 0x1000, 1, true, T) }, kill},
		{"L1D store elsewhere in the line", l1d, 0x1001, func(h *Hierarchy, d *device.Memory) { h.Store(d, 0x1004, 1, true, T) }, none},
		{"L2 store covering", l2, 0x1002, func(h *Hierarchy, d *device.Memory) { h.Store(d, 0x1000, 1, false, T) }, kill},
		{"L2 store elsewhere in the line", l2, 0x1002, func(h *Hierarchy, d *device.Memory) { h.Store(d, 0x1020, 1, false, T) }, none},
		{"InvalidateAll", l1d, 0x1000, func(h *Hierarchy, d *device.Memory) { h.L1D.InvalidateAll() }, kill},
		{"refill after InvalidateAll", l1d, 0x1000, func(h *Hierarchy, d *device.Memory) {
			h.L1D.InvalidateAll()
			h.Load(d, 0x1000, false, true, T)
		}, kill},
		{"flush of the dirty line", l2, 0x1041, func(h *Hierarchy, d *device.Memory) { h.L2.FlushTo(d, T) }, read},
		{"flush of a clean line", l2, 0x1001, func(h *Hierarchy, d *device.Memory) { h.L2.FlushTo(d, T) }, none},
	}
	for _, tc := range cases {
		h, dram, _, _ := newHier()
		logs := []*FrameLog{h.L1D.RecordFrames(), h.L1T.RecordFrames(), h.L2.RecordFrames()}
		warm(h, dram)
		c := tc.cache(h)
		i, off := lineOf(c, tc.addr), tc.addr%c.lineSize
		if i < 0 {
			t.Fatalf("%s: %#x is not cached", tc.name, tc.addr)
		}
		tc.act(h, dram)
		probed := tc.event == kill && c.lines[i].Valid
		if probed {
			c.noteRead(&c.lines[i], off&^3, 4, T+2)
		}
		for _, l := range logs {
			l.Seal()
		}
		log := logs[2]
		if c != h.L2 {
			log = logs[0]
		}
		for cycle, want := range map[int64]bool{T - 1: tc.event == read, T: tc.event == read, T + 1: probed} {
			if got := log.Live(i, off, cycle); got != want {
				t.Errorf("%s: flip at %d live=%v, want %v", tc.name, cycle-T, got, want)
			}
		}
	}
}

// TestFrameLogLiveCycles: LiveCycles counts the byte-cycles Live answers
// true for, over any span of cycles.
func TestFrameLogLiveCycles(t *testing.T) {
	h, dram, _, _ := newHier()
	logs := []*FrameLog{h.L1D.RecordFrames(), h.L1T.RecordFrames(), h.L2.RecordFrames()}
	warm(h, dram)
	rng := rand.New(rand.NewSource(1))
	for now := int64(0x1400); now < 0x1600; now++ {
		a := 0x1000 + uint32(rng.Intn(0x800/4))*4
		switch rng.Intn(4) {
		case 0:
			h.Store(dram, a, uint32(now), rng.Intn(2) == 0, now)
		case 1:
			h.L2.FlushTo(dram, now)
		default:
			h.Load(dram, a, rng.Intn(3) == 0, rng.Intn(2) == 0, now)
		}
	}
	for _, l := range logs {
		l.Seal()
		for _, span := range [][2]int64{{0x13f0, 0x1610}, {0x1450, 0x1451}, {0x1500, 0x1400}} {
			var want int64
			for i := 0; i < l.NumFrames(); i++ {
				for off := uint32(0); off < 64; off++ {
					for c := span[0]; c < span[1]; c++ {
						if l.Live(i, off, c) {
							want++
						}
					}
				}
			}
			live, all := l.LiveCycles(span[0], span[1])
			if live != want || all != int64(l.NumFrames())*64*max(span[1]-span[0], 0) {
				t.Errorf("span %v: LiveCycles %d of %d, Live says %d", span, live, all, want)
			}
			if span[0] == 0x13f0 && live == 0 {
				t.Error("nothing live over the recorded run")
			}
		}
	}
}

func l1d(h *Hierarchy) *Cache { return h.L1D }
func l2(h *Hierarchy) *Cache  { return h.L2 }
