// Package mem models the GPU cache hierarchy: per-SM L1 data and texture
// caches and a chip-wide L2, all holding real data bytes so that injected
// bit flips propagate (or are masked) exactly as they would in hardware.
//
// Policies follow the Volta arrangement modelled by GPGPU-Sim: L1D is
// write-through/no-write-allocate (so it never holds dirty lines and a
// corrupted line can be silently masked by eviction), the texture cache is
// read-only, and L2 is write-back/write-allocate (so corrupted dirty lines
// reach DRAM on eviction or at the end-of-job flush).
package mem

import (
	"bytes"
	"fmt"
	"slices"

	"gpurel/internal/device"
)

// Line is one cache line with real data storage.
type Line struct {
	Addr  uint32 // line-aligned base address (serves as the tag)
	Valid bool
	Dirty bool
	LRU   int64
	Data  []byte
}

// Stats counts the cache events surfaced in Figure 3 of the paper.
type Stats struct {
	Accesses    int64
	Misses      int64
	PendingHits int64
	ReservFails int64
}

type inflight struct {
	addr  uint32
	ready int64
}

// Cache is a set-associative cache with an MSHR-like in-flight fill tracker
// used for pending-hit and reservation-fail accounting.
type Cache struct {
	Name     string
	lineSize uint32
	sets     int
	ways     int
	lines    []Line // sets*ways, set-major
	data     []byte // every line's Data, line i at [i*lineSize, (i+1)*lineSize)
	mshrs    int
	fills    []inflight
	lruTick  int64

	// lastWay memoizes the last way lookup matched. Coalesced warp accesses
	// hit the same line 32 times in a row, so remembering it skips the set
	// scan on all but the first. The memo is a pure cache (re-validated
	// against tag and valid bit on every use) and is never saved, restored
	// or compared.
	lastWay int

	Stats Stats
}

// NewCache builds a cache of totalBytes capacity.
func NewCache(name string, totalBytes, lineSize, ways, mshrs int) *Cache {
	nLines := totalBytes / lineSize
	if nLines == 0 || nLines%ways != 0 {
		panic(fmt.Sprintf("mem: bad cache geometry for %s: %d bytes, %d-byte lines, %d ways", name, totalBytes, lineSize, ways))
	}
	c := &Cache{
		Name:     name,
		lineSize: uint32(lineSize),
		sets:     nLines / ways,
		ways:     ways,
		lines:    make([]Line, nLines),
		data:     make([]byte, nLines*lineSize),
		mshrs:    mshrs,
	}
	for i := range c.lines {
		c.lines[i].Data = c.data[i*lineSize : (i+1)*lineSize : (i+1)*lineSize]
	}
	return c
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint32 { return c.lineSize }

// NumLines returns the total number of lines.
func (c *Cache) NumLines() int { return len(c.lines) }

// LineAt exposes line i for fault injection.
func (c *Cache) LineAt(i int) *Line { return &c.lines[i] }

// DataBits returns the total number of data bits, the injection target space.
func (c *Cache) DataBits() int64 { return int64(len(c.lines)) * int64(c.lineSize) * 8 }

// FlipBit flips one bit of the data array: bit b of byte off of line i.
// It mirrors a particle strike on the SRAM array; tag/state bits are out of
// scope (as in gpuFI-4).
func (c *Cache) FlipBit(i int, off uint32, b uint8) {
	c.lines[i].Data[off] ^= 1 << (b & 7)
}

// SetBit forces one data-array bit to v, regardless of its current value.
// Permanent stuck-at faults use it to re-assert the defective cell every
// cycle; unlike FlipBit it is idempotent.
func (c *Cache) SetBit(i int, off uint32, b uint8, v bool) {
	if v {
		c.lines[i].Data[off] |= 1 << (b & 7)
	} else {
		c.lines[i].Data[off] &^= 1 << (b & 7)
	}
}

func (c *Cache) setOf(lineAddr uint32) int {
	return int(lineAddr/c.lineSize) % c.sets
}

// lookup returns the way holding lineAddr, or nil. At most one way can
// hold a given line address, so serving from the memoized last hit is
// identical to the set scan.
func (c *Cache) lookup(lineAddr uint32) *Line {
	if ln := &c.lines[c.lastWay]; ln.Valid && ln.Addr == lineAddr {
		return ln
	}
	set := c.setOf(lineAddr)
	for w := 0; w < c.ways; w++ {
		i := set*c.ways + w
		ln := &c.lines[i]
		if ln.Valid && ln.Addr == lineAddr {
			c.lastWay = i
			return ln
		}
	}
	return nil
}

// victim picks the LRU way of the set for lineAddr.
func (c *Cache) victim(lineAddr uint32) *Line {
	set := c.setOf(lineAddr)
	best := &c.lines[set*c.ways]
	for w := 1; w < c.ways; w++ {
		ln := &c.lines[set*c.ways+w]
		if !ln.Valid {
			return ln
		}
		if ln.LRU < best.LRU {
			best = ln
		}
	}
	return best
}

func (c *Cache) touch(ln *Line) {
	c.lruTick++
	ln.LRU = c.lruTick
}

// trackFill records an in-flight fill and returns (extraLatency, pendingHit).
// A fill already in flight for the same line is a pending hit whose latency
// is the remaining fill time. A full MSHR is a reservation failure with a
// stall penalty.
func (c *Cache) trackFill(lineAddr uint32, now, fillLat int64) (int64, bool) {
	// prune completed fills
	live := c.fills[:0]
	for _, f := range c.fills {
		if f.ready > now {
			live = append(live, f)
		}
	}
	c.fills = live
	for _, f := range c.fills {
		if f.addr == lineAddr {
			c.Stats.PendingHits++
			return f.ready - now, true
		}
	}
	if len(c.fills) >= c.mshrs {
		c.Stats.ReservFails++
		// stall until the earliest fill retires, then start ours
		earliest := c.fills[0].ready
		for _, f := range c.fills {
			if f.ready < earliest {
				earliest = f.ready
			}
		}
		wait := earliest - now
		c.fills = append(c.fills, inflight{addr: lineAddr, ready: earliest + fillLat})
		return wait + fillLat, false
	}
	c.fills = append(c.fills, inflight{addr: lineAddr, ready: now + fillLat})
	return fillLat, false
}

// CacheState is a deep copy of a cache's mutable state — line metadata
// (tags, valid/dirty bits, LRU stamps), the data array as one slab, in-flight
// fills, the LRU clock and the event counters. The checkpoint engine in
// internal/sim embeds one per cache in its machine snapshots.
type CacheState struct {
	meta    []lineMeta
	data    []byte
	fills   []inflight
	lruTick int64
	stats   Stats
}

// lineMeta is a Line without its data.
type lineMeta struct {
	addr         uint32
	valid, dirty bool
	lru          int64
}

// SaveState deep-copies the cache's mutable state into st, reusing st's
// buffers when they have the right shape.
func (c *Cache) SaveState(st *CacheState) {
	if len(st.meta) != len(c.lines) {
		st.meta = make([]lineMeta, len(c.lines))
		st.data = make([]byte, len(c.data))
	}
	for i := range c.lines {
		ln := &c.lines[i]
		st.meta[i] = lineMeta{addr: ln.Addr, valid: ln.Valid, dirty: ln.Dirty, lru: ln.LRU}
	}
	copy(st.data, c.data)
	st.fills = append(st.fills[:0], c.fills...)
	st.lruTick = c.lruTick
	st.stats = c.Stats
}

// LoadState restores state saved from a geometrically identical cache,
// overwriting every line, the fill tracker, the LRU clock and the counters.
func (c *Cache) LoadState(st *CacheState) {
	if len(st.meta) != len(c.lines) {
		panic(fmt.Sprintf("mem: LoadState geometry mismatch on %s: %d lines, snapshot has %d", c.Name, len(c.lines), len(st.meta)))
	}
	for i := range c.lines {
		m, ln := &st.meta[i], &c.lines[i]
		ln.Addr, ln.Valid, ln.Dirty, ln.LRU = m.addr, m.valid, m.dirty, m.lru
	}
	copy(c.data, st.data)
	c.fills = append(c.fills[:0], st.fills...)
	c.lruTick = st.lruTick
	c.Stats = st.stats
}

// StateEqual reports whether the cache's current state is identical to st.
// Data bytes of invalid lines are excluded from the comparison: they are
// architecturally unobservable (lookup and dirty writeback both require
// Valid, and a fill overwrites the whole line), so two states differing only
// there have identical continuations.
func (c *Cache) StateEqual(st *CacheState) bool {
	if len(st.meta) != len(c.lines) || c.lruTick != st.lruTick || c.Stats != st.stats {
		return false
	}
	if !slices.Equal(c.fills, st.fills) {
		return false
	}
	ls := int(c.lineSize)
	for i := range c.lines {
		a, b := &c.lines[i], &st.meta[i]
		if a.Valid != b.valid {
			return false
		}
		if !a.Valid {
			continue
		}
		if a.Addr != b.addr || a.Dirty != b.dirty || a.LRU != b.lru {
			return false
		}
		if !bytes.Equal(a.Data, st.data[i*ls:(i+1)*ls]) {
			return false
		}
	}
	return true
}

// StateBytes returns the retained size of a saved state (data array plus
// per-line metadata), used for snapshot memory budgeting.
func (st *CacheState) StateBytes() int64 {
	return int64(len(st.data)) + int64(len(st.meta))*24 + int64(len(st.fills))*16
}

// Reset returns the cache to its post-NewCache state: every line invalid
// with zeroed data, no in-flight fills, LRU clock and counters at zero. The
// run pool uses it so a recycled cache is indistinguishable from a fresh one.
func (c *Cache) Reset() {
	clear(c.data)
	for i := range c.lines {
		ln := &c.lines[i]
		ln.Addr, ln.Valid, ln.Dirty, ln.LRU = 0, false, false, 0
	}
	c.fills = c.fills[:0]
	c.lruTick = 0
	c.Stats = Stats{}
}

// InvalidateAll drops every line. Dirty data is lost, so only call it on
// write-through caches or after FlushTo.
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i].Valid = false
		c.lines[i].Dirty = false
	}
	c.fills = c.fills[:0]
}

// FlushTo writes every dirty line back to DRAM and cleans it.
func (c *Cache) FlushTo(dram *device.Memory) {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.Valid && ln.Dirty {
			dram.WriteAt(ln.Addr, ln.Data)
			ln.Dirty = false
		}
	}
}

// Hierarchy wires one SM's L1D/L1T to the shared L2 and DRAM and implements
// the access protocol. Latencies are supplied by the caller (the simulator's
// config) at construction.
type Hierarchy struct {
	L1D *Cache
	L1T *Cache
	L2  *Cache // shared; aliased across SM hierarchies
	// DRAM-level byte counters (the paper's "Memory Read"/"Memory Write").
	DRAMRead  *int64
	DRAMWrite *int64

	L1Lat, L2Lat, DRAMLat int64
}

// readLineL2 ensures lineAddr is present in L2 and returns (line, latency).
func (h *Hierarchy) readLineL2(dram *device.Memory, lineAddr uint32, now int64) (*Line, int64) {
	h.L2.Stats.Accesses++
	if ln := h.L2.lookup(lineAddr); ln != nil {
		h.L2.touch(ln)
		return ln, h.L2Lat
	}
	h.L2.Stats.Misses++
	lat, _ := h.L2.trackFill(lineAddr, now, h.DRAMLat)
	v := h.L2.victim(lineAddr)
	if v.Valid && v.Dirty {
		dram.WriteAt(v.Addr, v.Data)
		*h.DRAMWrite += int64(h.L2.lineSize)
	}
	copy(v.Data, dram.PeekBytes(lineAddr, h.L2.lineSize))
	*h.DRAMRead += int64(h.L2.lineSize)
	v.Addr, v.Valid, v.Dirty = lineAddr, true, false
	h.L2.touch(v)
	return v, h.L2Lat + lat
}

// Load reads a 4-byte word through L1D (or L1T when tex) backed by L2 and
// DRAM. first reports whether this is the first access to the line within
// the current warp instruction (set by the coalescer); only first accesses
// contribute stats and latency.
func (h *Hierarchy) Load(dram *device.Memory, addr uint32, tex bool, first bool, now int64) (uint32, int64) {
	l1 := h.L1D
	if tex {
		l1 = h.L1T
	}
	lineAddr := addr &^ (l1.lineSize - 1)
	off := addr - lineAddr
	if !first {
		if ln := l1.lookup(lineAddr); ln != nil {
			return le32(ln.Data[off:]), 0
		}
		// The line was filled and already evicted within one instruction
		// (pathological); fall through as a counted access.
	}
	l1.Stats.Accesses++
	if ln := l1.lookup(lineAddr); ln != nil {
		l1.touch(ln)
		return le32(ln.Data[off:]), h.L1Lat
	}
	l1.Stats.Misses++
	l2ln, lat := h.readLineL2(dram, lineAddr, now)
	fillLat, pending := l1.trackFill(lineAddr, now, lat)
	v := l1.victim(lineAddr)
	// L1 lines are never dirty (write-through), so eviction is silent.
	copy(v.Data, l2ln.Data)
	v.Addr, v.Valid, v.Dirty = lineAddr, true, false
	l1.touch(v)
	_ = pending
	return le32(v.Data[off:]), h.L1Lat + fillLat
}

// Store writes a 4-byte word: write-through L1D (update on hit, no
// allocate), write-back write-allocate L2.
func (h *Hierarchy) Store(dram *device.Memory, addr uint32, val uint32, first bool, now int64) int64 {
	lineAddr := addr &^ (h.L1D.lineSize - 1)
	off := addr - lineAddr
	var lat int64
	if first {
		h.L1D.Stats.Accesses++
		lat = h.L1Lat
	}
	if ln := h.L1D.lookup(lineAddr); ln != nil {
		putLE32(ln.Data[off:], val)
		h.L1D.touch(ln)
	} else if first {
		h.L1D.Stats.Misses++
	}
	// L2 write-allocate
	var l2ln *Line
	var l2lat int64
	if first {
		l2ln, l2lat = h.readLineL2(dram, lineAddr, now)
	} else {
		if l2ln = h.L2.lookup(lineAddr); l2ln == nil {
			l2ln, _ = h.readLineL2(dram, lineAddr, now)
		}
	}
	putLE32(l2ln.Data[off:], val)
	l2ln.Dirty = true
	return lat + l2lat
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
