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
	"math"
	"slices"

	"gpurel/internal/device"
	"gpurel/internal/live"
	"gpurel/internal/pages"
)

// Line is one cache line with real data storage.
type Line struct {
	Addr  uint32 // line-aligned base address (serves as the tag)
	Valid bool
	Dirty bool
	set   uint16 // the set holding the line, so marking it needs no division
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

	// dirty is the per-set write bitset backing copy-on-write snapshots,
	// one page per set: bit s set means set s may have diverged from the
	// provenance state the checkpoint engine last synced against. Every
	// mutation of a line — fill, LRU update, store, bit flip, invalidation,
	// writeback clean, reset — marks its set; lookup only reads and marks
	// nothing.
	dirty pages.Bits

	// frames, when set, is the data record a fault-free run keeps
	// (RecordFrames). Every data path pays one nil compare for it.
	frames *FrameLog

	Stats Stats
}

// NewCache builds a cache of totalBytes capacity.
func NewCache(name string, totalBytes, lineSize, ways, mshrs int) *Cache {
	nLines := totalBytes / lineSize
	if nLines == 0 || nLines%ways != 0 || nLines/ways > math.MaxUint16+1 {
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
		dirty:    pages.NewBits(nLines / ways),
	}
	for i := range c.lines {
		c.lines[i].Data = c.data[i*lineSize : (i+1)*lineSize : (i+1)*lineSize]
		c.lines[i].set = uint16(i / ways)
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
	c.markSet(i / c.ways)
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
	c.markSet(i / c.ways)
}

// FrameLog is the data record of one cache over a fault-free run: for every
// 4-byte word of every frame (line slot), the injection cycles at which a
// flip of one of its bytes reaches a read. The run logs each frame's data
// events in execution order, each during the cycle it happens in:
//   - reads: a load hit covering the word, an L1 fill copying an L2 line,
//     and the write-back of a dirty line, at an eviction or a flush;
//   - kills: a store covering the word, and a fill of the frame.
//
// A flip at the top of cycle c reaches a read exactly when the word's first
// event at or after cycle c is a read. Until that read the faulty run's
// cache events are golden's, so a flip whose first event is a kill, or that
// meets no event before the job ends, leaves a run equal to golden's.
// InvalidateAll needs no event: only a fill, itself a kill, makes an
// invalid frame readable again, so a flip into an invalid frame is dead
// too. Loads and stores are word-aligned, so all four bytes of a word share
// one record: the live package's, word w of frame i being site
// i*words + w.
type FrameLog struct {
	words int          // words per frame
	track []live.Track // while recording; nil once sealed
	sites live.Sites   // track, sealed
}

// RecordFrames attaches a new data record to the cache and returns it. The
// cache must not have been accessed since NewCache or Reset (every frame
// invalid), and the record is queried only once sealed. Reset and LoadState
// detach it.
func (c *Cache) RecordFrames() *FrameLog {
	words := int(c.lineSize / 4)
	c.frames = &FrameLog{words: words, track: make([]live.Track, len(c.lines)*words)}
	return c.frames
}

// noteRead logs that n bytes of ln from off, a word-aligned span, are read
// or copied out during cycle now.
func (c *Cache) noteRead(ln *Line, off, n uint32, now int64) {
	if c.frames != nil {
		c.record(ln, off, n, now, true)
	}
}

// noteKill logs that n bytes of ln from off, a word-aligned span, are
// overwritten during cycle now.
func (c *Cache) noteKill(ln *Line, off, n uint32, now int64) {
	if c.frames != nil {
		c.record(ln, off, n, now, false)
	}
}

// record applies one event during cycle t to the words of ln that bytes
// [off, off+n) cover.
func (c *Cache) record(ln *Line, off, n uint32, t int64, read bool) {
	i := int(ln.set) * c.ways // ln's frame index, found within its set
	for &c.lines[i] != ln {
		i++
	}
	l := c.frames
	base := i * l.words
	for k := base + int(off/4); k < base+int((off+n)/4); k++ {
		if read {
			l.track[k].Read(t)
		} else {
			l.track[k].Kill(t)
		}
	}
}

// Seal freezes the record into its compact form once the run has ended.
func (l *FrameLog) Seal() { l.sites, l.track = live.Encode(l.track), nil }

// NumFrames returns the number of frames recorded, the cache's line count.
func (l *FrameLog) NumFrames() int { return l.sites.Len() / l.words }

// Live reports whether a flip of byte off of frame i at the top of cycle c
// reaches a read; false means the flip is provably Masked.
func (l *FrameLog) Live(i int, off uint32, c int64) bool {
	return l.sites.Live(i*l.words+int(off/4), c)
}

// LiveCycles returns the byte-cycles of cycles [from, to) at which a flip
// reaches a read, and all byte-cycles of those cycles.
func (l *FrameLog) LiveCycles(from, to int64) (live, all int64) {
	return 4 * l.sites.LiveCycles(from, to), int64(l.sites.Len()) * 4 * max(to-from, 0)
}

// Check validates the sealed record of a run of the given number of cycles
// (live.Sites.Check).
func (l *FrameLog) Check(cycles int64) error { return l.sites.Check(cycles) }

func (c *Cache) markSet(s int) { c.dirty.Mark(s) }

// ClearPageDirty clears the per-set snapshot bits. Only the checkpoint
// engine calls it, at provenance sync points.
func (c *Cache) ClearPageDirty() { c.dirty.Clear() }

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

// victim picks the LRU way of the set for lineAddr, which the caller fills,
// and marks the set.
func (c *Cache) victim(lineAddr uint32) *Line {
	set := c.setOf(lineAddr)
	c.markSet(set)
	best := set * c.ways
	for i := best + 1; i < (set+1)*c.ways; i++ {
		ln := &c.lines[i]
		if !ln.Valid {
			best = i
			break
		}
		if ln.LRU < c.lines[best].LRU {
			best = i
		}
	}
	return &c.lines[best]
}

// touch stamps ln as most recently used and marks its set. Every hit and
// every fill ends here, so a line's LRU stamp never changes unmarked.
func (c *Cache) touch(ln *Line) {
	c.lruTick++
	ln.LRU = c.lruTick
	c.markSet(int(ln.set))
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

// CacheState is a structurally shared copy of a cache's mutable state: one
// page per set, holding that set's line metadata (tags, valid/dirty bits,
// LRU stamps) and data, plus the in-flight fills, the LRU clock and the
// event counters. A set untouched since the previous save aliases the
// previous state's page instead of being copied. Immutable once saved; the
// zero state is no base. The checkpoint engine in internal/sim embeds one
// per cache in its machine snapshots.
type CacheState struct {
	sets    pages.Table[*SetPage]
	fills   []inflight
	lruTick int64
	stats   Stats
}

// SetPage is one set of a saved cache state. A page shared between states
// is the same *SetPage in each.
type SetPage struct {
	meta []lineMeta
	data []byte
}

// lineMeta is a Line without its data.
type lineMeta struct {
	addr         uint32
	valid, dirty bool
	lru          int64
}

func (ln *Line) meta() lineMeta {
	return lineMeta{addr: ln.Addr, valid: ln.Valid, dirty: ln.Dirty, lru: ln.LRU}
}

// setData returns the slab bytes of set s's lines.
func (c *Cache) setData(s int) []byte {
	n := c.ways * int(c.lineSize)
	return c.data[s*n : (s+1)*n]
}

// Size returns the retained size of the page: data, metadata and header.
func (p *SetPage) Size() int64 {
	return int64(len(p.data)) + int64(len(p.meta))*16 + 48
}

// Pages exposes the set pages for retained-byte accounting. Callers must
// treat them as read-only. A nil state has none.
func (st *CacheState) Pages() pages.Table[*SetPage] {
	if st == nil {
		return nil
	}
	return st.sets
}

// FixedBytes returns the retained size of everything but the set pages:
// the page table, the in-flight fills, the clock and the counters.
func (st *CacheState) FixedBytes() int64 {
	return int64(len(st.sets))*8 + int64(len(st.fills))*16 + 80
}

// setArray is a cache as the page table sees it: one page per set.
type setArray struct{ *Cache }

func (c setArray) Dirty() *pages.Bits { return &c.dirty }

func (c setArray) Save(s int) *SetPage {
	pg := &SetPage{meta: make([]lineMeta, c.ways), data: slices.Clone(c.setData(s))}
	for w := range pg.meta {
		pg.meta[w] = c.lines[s*c.ways+w].meta()
	}
	return pg
}

func (c setArray) Load(s int, pg *SetPage) {
	for w, m := range pg.meta {
		ln := &c.lines[s*c.ways+w]
		ln.Addr, ln.Valid, ln.Dirty, ln.LRU = m.addr, m.valid, m.dirty, m.lru
	}
	copy(c.setData(s), pg.data)
}

// Equal reports whether set s holds pg, the data bytes of invalid lines
// aside: they are architecturally unobservable (lookup and dirty writeback
// both require Valid, and a fill overwrites the whole line), so two states
// differing only there have identical continuations.
func (c setArray) Equal(s int, pg *SetPage) bool {
	ls := int(c.lineSize)
	for w, m := range pg.meta {
		ln := &c.lines[s*c.ways+w]
		if ln.Valid != m.valid {
			return false
		}
		if ln.Valid && (ln.meta() != m || !bytes.Equal(ln.Data, pg.data[w*ls:(w+1)*ls])) {
			return false
		}
	}
	return true
}

// SaveState snapshots the cache into st, sharing the sets whose dirty bit
// is clear with prev, the provenance base the bits are relative to (a nil
// or zero prev copies everything). Dirty bits are left untouched; the
// caller clears them when it re-bases its provenance on the new state.
func (c *Cache) SaveState(st, prev *CacheState) {
	st.sets = pages.Save(setArray{c}, prev.Pages())
	st.fills = slices.Clone(c.fills)
	st.lruTick = c.lruTick
	st.stats = c.Stats
}

// LoadState restores state saved from a geometrically identical cache,
// skipping the sets base, the provenance base of the dirty bits, proves
// already in place. The caller re-bases provenance afterwards.
func (c *Cache) LoadState(st, base *CacheState) {
	if len(st.sets) != c.sets {
		panic(fmt.Sprintf("mem: LoadState geometry mismatch on %s: %d sets, snapshot has %d", c.Name, c.sets, len(st.sets)))
	}
	pages.Load(setArray{c}, st.sets, base.Pages())
	c.fills = append(c.fills[:0], st.fills...)
	c.lruTick = st.lruTick
	c.Stats = st.stats
	c.frames = nil
}

// StateEqual reports whether the cache's current state is identical to st,
// skipping the sets in place as LoadState does. Data bytes of invalid lines
// are not compared (setArray.Equal).
func (c *Cache) StateEqual(st, base *CacheState) bool {
	return len(st.sets) == c.sets && c.lruTick == st.lruTick && c.Stats == st.stats &&
		slices.Equal(c.fills, st.fills) && pages.Diff(setArray{c}, st.sets, base.Pages()) < 0
}

// UnmarkedDiff returns the first set whose dirty bit is clear although its
// lines differ from base's page for that set — in any metadata field or any
// data byte, of valid and invalid lines alike — or -1. With sound marking it
// is always -1: it is the oracle tests audit the dirty bits against, and no
// run calls it.
func (c *Cache) UnmarkedDiff(base *CacheState) int {
	return pages.Unmarked(&c.dirty, base.sets, func(s int, pg *SetPage) bool {
		for w, m := range pg.meta {
			if c.lines[s*c.ways+w].meta() != m {
				return false
			}
		}
		return bytes.Equal(c.setData(s), pg.data)
	})
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
	c.dirty.SetAll()
	c.frames = nil
}

// InvalidateAll drops every line. Dirty data is lost, so only call it on
// write-through caches or after FlushTo. It marks the sets of the lines it
// changes; a set whose lines are all invalid and clean already is left as
// is.
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.Valid || ln.Dirty {
			ln.Valid, ln.Dirty = false, false
			c.markSet(int(ln.set))
		}
	}
	c.fills = c.fills[:0]
}

// FlushTo writes every dirty line back to DRAM during cycle now and cleans
// it, marking the sets of the lines it cleans.
func (c *Cache) FlushTo(dram *device.Memory, now int64) {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.Valid && ln.Dirty {
			c.noteRead(ln, 0, c.lineSize, now)
			dram.WriteAt(ln.Addr, ln.Data)
			ln.Dirty = false
			c.markSet(int(ln.set))
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
		h.L2.noteRead(v, 0, h.L2.lineSize, now)
		dram.WriteAt(v.Addr, v.Data)
		*h.DRAMWrite += int64(h.L2.lineSize)
	}
	h.L2.noteKill(v, 0, h.L2.lineSize, now)
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
			l1.noteRead(ln, off, 4, now)
			return le32(ln.Data[off:]), 0
		}
		// The line was filled and already evicted within one instruction
		// (pathological); fall through as a counted access.
	}
	l1.Stats.Accesses++
	if ln := l1.lookup(lineAddr); ln != nil {
		l1.touch(ln)
		l1.noteRead(ln, off, 4, now)
		return le32(ln.Data[off:]), h.L1Lat
	}
	l1.Stats.Misses++
	l2ln, lat := h.readLineL2(dram, lineAddr, now)
	fillLat, pending := l1.trackFill(lineAddr, now, lat)
	v := l1.victim(lineAddr)
	// L1 lines are never dirty (write-through), so eviction is silent.
	h.L2.noteRead(l2ln, 0, h.L2.lineSize, now)
	l1.noteKill(v, 0, l1.lineSize, now)
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
		h.L1D.noteKill(ln, off, 4, now)
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
	h.L2.noteKill(l2ln, off, 4, now)
	putLE32(l2ln.Data[off:], val)
	l2ln.Dirty = true
	h.L2.markSet(int(l2ln.set)) // a non-first store hit skips touch
	return lat + l2lat
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
