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
	h.L2.FlushTo(dram)
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
	h.L2.FlushTo(dram)
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
		h.L2.FlushTo(dram)
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

// TestStateRoundTrip: Save, then flip a bit, fill lines and store, then Load
// gives back a cache equal to the saved state; and the saved state itself is
// byte-unchanged by the mutations, so the snapshot's slab never aliases the
// live cache's.
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
	h.L2.SaveState(&st)
	meta := append([]lineMeta(nil), st.meta...)
	data := append([]byte(nil), st.data...)
	if !h.L2.StateEqual(&st) {
		t.Fatal("a cache differs from its own saved state")
	}

	h.L2.FlipBit(0, 3, 5)
	for a := uint32(0x1200); a < 0x1400; a += 64 { // fills of lines not yet held
		h.Load(dram, a, false, true, 10000)
	}
	h.Store(dram, 0x1008, 0xFFFFFFFF, true, 10001)
	if h.L2.StateEqual(&st) {
		t.Fatal("mutated cache still equals the saved state")
	}
	if !slices.Equal(st.meta, meta) || !bytes.Equal(st.data, data) {
		t.Fatal("mutating the cache changed a saved state")
	}

	h.L2.LoadState(&st)
	if !h.L2.StateEqual(&st) {
		t.Fatal("Load did not restore the saved state")
	}
	for i := range h.L2.lines {
		ln := &h.L2.lines[i]
		if &ln.Data[0] != &h.L2.data[i*64] || !bytes.Equal(ln.Data, st.data[i*64:(i+1)*64]) {
			t.Fatalf("line %d: data not restored into its slab slot", i)
		}
	}
	// the restored cache must not share storage with the state either
	h.L2.FlipBit(0, 0, 0)
	if !bytes.Equal(st.data, data) {
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
	h.L2.SaveState(&st)
	valid := -1
	for i := range h.L2.lines {
		if h.L2.lines[i].Valid {
			valid = i
		}
	}
	invalid := (valid + 1) % h.L2.NumLines()
	h.L2.FlipBit(invalid, 0, 0)
	if !h.L2.StateEqual(&st) {
		t.Error("a flip in an invalid line broke equality")
	}
	h.L2.FlipBit(valid, 0, 0)
	if h.L2.StateEqual(&st) {
		t.Error("a flip in a valid line kept equality")
	}
}
