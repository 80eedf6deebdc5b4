// Checkpointed fork-and-join support: deep snapshots of complete machine
// state taken during a reference (golden) run, used by injectors to (a)
// resume faulty runs from the nearest checkpoint below the injection cycle
// instead of replaying the fault-free prefix, and (b) detect that a faulty
// run's state has become bit-identical to the reference at a later
// checkpoint, at which point its remaining trajectory — and therefore its
// outcome — equals the reference suffix and need not be simulated.
//
// The equivalence argument rests on the simulator being a deterministic
// function of its state: two runners with identical (cycle, schedule
// position, launch progress, SM arrays, allocator free lists, warp stacks,
// caches, device memory, DRAM counters, accumulated stats) execute identical
// continuations. Snapshots capture exactly that closure, nothing less.
//
// Every storage array — register files, shared memories, device memory and
// the caches, one page per cache set — is snapshotted as pages with
// copy-on-write sharing: the runner tracks which pages may have diverged
// from the provenance snapshot it last synced against (runner.baseSnap), and
// a capture copies only those, sharing the rest with the base by aliasing
// its pages. Consecutive checkpoints of a long run therefore cost
// proportional to the write working-set between them, not the machine size,
// which multiplies how many checkpoints fit in a snapshot budget. Restores
// and convergence checks use the same provenance to skip pages that are
// provably already identical.
package sim

import (
	"slices"
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/uop"
)

// Snapshot is a deep (but structurally shared) copy of complete machine
// state at the end of one cycle. Immutable once captured; safe for
// concurrent read-only use by many resumed/probed runs.
type Snapshot struct {
	cycle int64
	si    int
	steps int

	schedNext int

	dramRead, dramWrite int64

	dmem device.PagedState
	l2   mem.CacheState
	sms  []smSnap

	launch launchSnap
	spans  []LaunchSpan
	knames []string
	kstats []KernelStats

	// fixed is the retained size of everything except shareable storage
	// pages; bytes is the standalone footprint (fixed plus all pages,
	// sharing ignored). SnapshotSet accounts retained bytes across a whole
	// set by counting each distinct page once.
	fixed int64
	bytes int64
}

// Cycle returns the cycle the snapshot was taken at.
func (s *Snapshot) Cycle() int64 { return s.cycle }

// Bytes returns the standalone (sharing-ignored) size of the snapshot.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// PageBytes returns the standalone size of the snapshot's storage pages and
// device allocation table; the rest of Bytes() is state every snapshot
// holds alone.
func (s *Snapshot) PageBytes() int64 { return s.bytes - s.fixed }

type smSnap struct {
	// rfPages and smPages page the register file (rfPageWords words each)
	// and shared memory (smPageBytes bytes each); pages untouched since the
	// provenance base alias the base's slices instead of being copied.
	rfPages        [][]uint32
	smPages        [][]byte
	rfFree, smFree []block
	l1d, l1t       mem.CacheState
	threadsUsed    int
	issuePtr       int
	ctas           []ctaSnap
}

type ctaSnap struct {
	uop.CTA // Params is read-only during a run: shared, not copied
	prog    *isa.Program

	warps []warpSnap
	meta  []warpMeta
	preds []uint8
	live  int

	rfBase, rfSize int
	smBase, smSize int
	threads        int
	schedID        int
}

type warpSnap struct {
	fullMask, exited uint32
	stack            []exec.Ent
}

type launchSnap struct {
	l         *device.Launch
	pending   []pendingCTA
	resident  int
	nextSM    int
	span      LaunchSpan
	statsBase statsSnapshot
}

// savePages snapshots data as pages of pageSize elements. A page whose dirty
// bit is clear is shared with the corresponding base page (the caller
// guarantees base is the provenance the bits are relative to); base nil
// forces a full copy.
func savePages[T uint32 | byte](data []T, dirty []uint64, base [][]T, pageSize int) [][]T {
	np := pageCount(len(data), pageSize)
	pages := make([][]T, np)
	for p := 0; p < np; p++ {
		if base != nil && !dirtyBit(dirty, p) {
			pages[p] = base[p]
			continue
		}
		lo := p * pageSize
		hi := min(lo+pageSize, len(data))
		pages[p] = append([]T(nil), data[lo:hi]...)
	}
	return pages
}

// sharedPage reports whether two page slices alias the same backing array.
func sharedPage[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// loadPages restores pages into data. A page that is clean (live content
// equals the base page) and shared between pages and base (snapshot content
// equals the base page) is already in place and skipped; base nil forces a
// full copy.
func loadPages[T uint32 | byte](data []T, pages [][]T, dirty []uint64, base [][]T, pageSize int) {
	for p, pg := range pages {
		if base != nil && !dirtyBit(dirty, p) && sharedPage(pg, base[p]) {
			continue
		}
		copy(data[p*pageSize:], pg)
	}
}

// pagesEqual returns -1 when data equals the snapshotted pages (with the
// same clean-and-shared fast path as loadPages), or the index of the first
// differing page.
func pagesEqual[T uint32 | byte](data []T, pages [][]T, dirty []uint64, base [][]T, pageSize int) int {
	for p, pg := range pages {
		if base != nil && !dirtyBit(dirty, p) && sharedPage(pg, base[p]) {
			continue
		}
		lo := p * pageSize
		if !slices.Equal(data[lo:lo+len(pg)], pg) {
			return p
		}
	}
	return -1
}

// capture deep-copies the runner's state, sharing storage pages with the
// current provenance base where the dirty bits prove them unchanged, then
// re-bases the runner's provenance on the new snapshot. Only called from
// inside the runLaunch cycle loop, so r.cur is always non-nil: every
// checkpoint lies within some kernel launch (the cycle counter only
// advances there).
func (r *runner) capture() *Snapshot {
	base := r.baseSnap
	s := &Snapshot{
		cycle:     r.cycle,
		si:        r.si,
		steps:     r.steps,
		schedNext: r.schedNext,
		dramRead:  r.dramRead,
		dramWrite: r.dramWrite,
	}
	if dirtyAudit != nil && base != nil {
		dirtyAudit(r)
	}
	dmemBase, l2Base := base.shared()
	r.mem.SavePaged(&s.dmem, dmemBase)
	r.l2.SaveState(&s.l2, l2Base)
	s.sms = make([]smSnap, len(r.sms))
	for i, sm := range r.sms {
		captureSM(sm, &s.sms[i], base.sm(i))
	}
	cur := r.cur
	s.launch = launchSnap{
		l:         cur.l,
		pending:   slices.Clone(cur.pending),
		resident:  cur.resident,
		nextSM:    cur.nextSM,
		span:      cur.span,
		statsBase: cur.statsBase,
	}
	s.spans = slices.Clone(r.res.Spans)
	s.knames = slices.Clone(r.knames)
	s.kstats = slices.Clone(r.kstats)
	s.fixed = s.footprint()
	s.bytes = s.fixed + s.pageBytes()
	r.syncDirty(s)
	return s
}

func captureSM(sm *SM, dst *smSnap, base *smSnap) {
	rfBase, smBase, l1dBase, l1tBase := base.shared()
	dst.rfPages = savePages(sm.RF, sm.rfDirty, rfBase, rfPageWords)
	dst.smPages = savePages(sm.Smem, sm.smDirty, smBase, smPageBytes)
	dst.rfFree = slices.Clone(sm.rfAlloc.free)
	dst.smFree = slices.Clone(sm.smAlloc.free)
	sm.L1D.SaveState(&dst.l1d, l1dBase)
	sm.L1T.SaveState(&dst.l1t, l1tBase)
	dst.threadsUsed = sm.threadsUsed
	dst.issuePtr = sm.issuePtr
	dst.ctas = make([]ctaSnap, len(sm.ctas))
	for i, c := range sm.ctas {
		captureCTA(c, &dst.ctas[i])
	}
}

func captureCTA(c *ctaRT, dst *ctaSnap) {
	dst.CTA = c.CTA
	dst.prog = c.prog
	dst.warps = make([]warpSnap, len(c.warps))
	for i, w := range c.warps {
		dst.warps[i] = warpSnap{fullMask: w.FullMask, exited: w.Exited, stack: slices.Clone(w.Stack)}
	}
	dst.meta = slices.Clone(c.meta)
	dst.preds = slices.Clone(c.preds)
	dst.live = c.live
	dst.rfBase, dst.rfSize = c.rfBase, c.rfSize
	dst.smBase, dst.smSize = c.smBase, c.smSize
	dst.threads = c.threads
	dst.schedID = c.schedID
}

// syncDirty re-bases the runner's page provenance on s: the runner's state
// equals s when it is called, so every page is clean against s and every
// dirty bit clears, along with the marks-done flags of warps and CTAs. From
// here on each array marks its own writes (see SM.rfDirty).
func (r *runner) syncDirty(s *Snapshot) {
	r.baseSnap = s
	for _, sm := range r.sms {
		clear(sm.rfDirty)
		clear(sm.smDirty)
		for i := range sm.slots {
			sm.slots[i].rfMarked = false
		}
		for _, c := range sm.ctas {
			c.smMarked = false
		}
		sm.L1D.ClearPageDirty()
		sm.L1T.ClearPageDirty()
	}
	r.l2.ClearPageDirty()
	r.mem.ClearPageDirty()
}

// dirtyAudit is nil in every binary except this package's own test binary,
// where a test can point it at a check that every page whose dirty bit is
// clear still equals the provenance base's page. capture, restore and
// matches call it whenever they are about to trust the bits. Nothing outside
// _test files assigns it.
var dirtyAudit func(r *runner)

// shared returns the base's device-memory and L2 states to share pages
// with, or nils (copy everything) for a nil base.
func (s *Snapshot) shared() (*device.PagedState, *mem.CacheState) {
	if s == nil {
		return nil, nil
	}
	return &s.dmem, &s.l2
}

// sm returns the base's snapshot of SM i, or nil for a nil base.
func (s *Snapshot) sm(i int) *smSnap {
	if s == nil {
		return nil
	}
	return &s.sms[i]
}

// shared returns the base SM's page tables and L1 states, or nils for a nil
// base.
func (s *smSnap) shared() ([][]uint32, [][]byte, *mem.CacheState, *mem.CacheState) {
	if s == nil {
		return nil, nil, nil, nil
	}
	return s.rfPages, s.smPages, &s.l1d, &s.l1t
}

// restore overwrites the runner's state from the snapshot, skipping storage
// pages that the provenance base proves are already identical, and re-bases
// the provenance on s. The runner must have been built for the same job and
// configuration; the injection hook is re-armed (snapshots are taken on
// fault-free reference runs, strictly before any resumed run's injection
// cycle).
func (r *runner) restore(s *Snapshot) {
	if len(r.sms) != len(s.sms) {
		panic("sim: restore onto a machine with a different SM count")
	}
	base := r.baseSnap
	r.cycle = s.cycle
	r.si = s.si
	r.steps = s.steps
	r.schedNext = s.schedNext
	r.fired = false
	r.dramRead = s.dramRead
	r.dramWrite = s.dramWrite
	if dirtyAudit != nil && base != nil {
		dirtyAudit(r)
	}
	dmemBase, l2Base := base.shared()
	r.mem.LoadPaged(&s.dmem, dmemBase)
	r.l2.LoadState(&s.l2, l2Base)
	for i, sm := range r.sms {
		r.restoreSM(sm, &s.sms[i], base.sm(i))
	}
	r.cur = &launchState{
		l:         s.launch.l,
		pending:   slices.Clone(s.launch.pending),
		resident:  s.launch.resident,
		nextSM:    s.launch.nextSM,
		span:      s.launch.span,
		statsBase: s.launch.statsBase,
	}
	r.res.Spans = append(r.res.Spans[:0], s.spans...)
	r.knames = append(r.knames[:0], s.knames...)
	r.kstats = append(r.kstats[:0], s.kstats...)
	r.syncDirty(s)
}

func (r *runner) restoreSM(sm *SM, src *smSnap, base *smSnap) {
	if pageCount(len(sm.RF), rfPageWords) != len(src.rfPages) || pageCount(len(sm.Smem), smPageBytes) != len(src.smPages) {
		panic("sim: restore onto a machine with different SM geometry")
	}
	rfBase, smBase, l1dBase, l1tBase := base.shared()
	loadPages(sm.RF, src.rfPages, sm.rfDirty, rfBase, rfPageWords)
	loadPages(sm.Smem, src.smPages, sm.smDirty, smBase, smPageBytes)
	sm.rfAlloc.free = append(sm.rfAlloc.free[:0], src.rfFree...)
	sm.smAlloc.free = append(sm.smAlloc.free[:0], src.smFree...)
	sm.L1D.LoadState(&src.l1d, l1dBase)
	sm.L1T.LoadState(&src.l1t, l1tBase)
	sm.threadsUsed = src.threadsUsed
	sm.issuePtr = src.issuePtr
	sm.ctas = sm.ctas[:0]
	for i := range src.ctas {
		sm.ctas = append(sm.ctas, r.restoreCTA(&src.ctas[i]))
	}
	sm.rebuildSlots()
	sm.nextReady = 0
}

func (r *runner) restoreCTA(src *ctaSnap) *ctaRT {
	c := &ctaRT{
		CTA:     src.CTA,
		prog:    src.prog,
		uprog:   uop.Cached(src.prog),
		meta:    slices.Clone(src.meta),
		preds:   slices.Clone(src.preds),
		live:    src.live,
		rfBase:  src.rfBase,
		rfSize:  src.rfSize,
		smBase:  src.smBase,
		smSize:  src.smSize,
		threads: src.threads,
		schedID: src.schedID,
		smTrack: r.opts.SchedTrace != nil,
	}
	for i := range src.warps {
		ws := &src.warps[i]
		c.warps = append(c.warps, &exec.Warp{FullMask: ws.fullMask, Exited: ws.exited, Stack: slices.Clone(ws.stack)})
	}
	return c
}

// matches reports whether the runner's live state is bit-identical to the
// snapshot. It compares the full deterministic closure — schedule position,
// launch progress, accumulated spans/stats, storage arrays, allocator free
// lists, warp contexts, caches, device memory and DRAM counters — so a
// match guarantees the continuation (and thus the final Result) equals the
// reference run's. Storage pages that are clean against the provenance base
// and shared between the snapshot and the base are skipped.
func (r *runner) matches(s *Snapshot) bool {
	if r.cycle != s.cycle || r.si != s.si || r.steps != s.steps || r.schedNext != s.schedNext {
		return false
	}
	if r.dramRead != s.dramRead || r.dramWrite != s.dramWrite {
		return false
	}
	cur := r.cur
	ls := &s.launch
	if cur.l != ls.l || cur.resident != ls.resident || cur.nextSM != ls.nextSM ||
		cur.span != ls.span || cur.statsBase != ls.statsBase {
		return false
	}
	if !slices.Equal(cur.pending, ls.pending) {
		return false
	}
	if !slices.Equal(r.res.Spans, s.spans) {
		return false
	}
	if !slices.Equal(r.knames, s.knames) || !slices.Equal(r.kstats, s.kstats) {
		return false
	}
	if len(r.sms) != len(s.sms) {
		return false
	}
	// Last-diff probe: a run that has not converged yet usually stays
	// diverged at the very storage page that failed the previous compare
	// (the flipped word persists until overwritten), so checking that one
	// page first turns the common failing compare into a single-page memcmp. Purely derived state:
	// a stale probe just falls through to the full compare.
	if d := r.lastDiff; d.valid && d.sm < len(r.sms) {
		sm, ss := r.sms[d.sm], &s.sms[d.sm]
		if d.smem {
			if d.page < len(ss.smPages) {
				pg := ss.smPages[d.page]
				if !slices.Equal(sm.Smem[d.page*smPageBytes:d.page*smPageBytes+len(pg)], pg) {
					return false
				}
			}
		} else if d.page < len(ss.rfPages) {
			pg := ss.rfPages[d.page]
			if !slices.Equal(sm.RF[d.page*rfPageWords:d.page*rfPageWords+len(pg)], pg) {
				return false
			}
		}
		r.lastDiff.valid = false
	}
	base := r.baseSnap
	if dirtyAudit != nil && base != nil {
		dirtyAudit(r)
	}
	for i, sm := range r.sms {
		if !r.smEqual(i, sm, &s.sms[i], base.sm(i)) {
			return false
		}
	}
	dmemBase, l2Base := base.shared()
	if !r.mem.PagedEqual(&s.dmem, dmemBase) {
		return false
	}
	return r.l2.StateEqual(&s.l2, l2Base)
}

func (r *runner) smEqual(idx int, sm *SM, src *smSnap, base *smSnap) bool {
	if sm.threadsUsed != src.threadsUsed || sm.issuePtr != src.issuePtr {
		return false
	}
	if len(sm.ctas) != len(src.ctas) {
		return false
	}
	for i, c := range sm.ctas {
		if !ctaEqual(c, &src.ctas[i]) {
			return false
		}
	}
	if !slices.Equal(sm.rfAlloc.free, src.rfFree) || !slices.Equal(sm.smAlloc.free, src.smFree) {
		return false
	}
	// Register and shared-memory pages before cache sets: a run that has not
	// converged yet usually differs there first, and the last-diff probe
	// remembers those pages only.
	rfBase, smBase, l1dBase, l1tBase := base.shared()
	if p := pagesEqual(sm.RF, src.rfPages, sm.rfDirty, rfBase, rfPageWords); p >= 0 {
		r.lastDiff = diffProbe{valid: true, sm: idx, page: p}
		return false
	}
	if p := pagesEqual(sm.Smem, src.smPages, sm.smDirty, smBase, smPageBytes); p >= 0 {
		r.lastDiff = diffProbe{valid: true, sm: idx, page: p, smem: true}
		return false
	}
	return sm.L1D.StateEqual(&src.l1d, l1dBase) && sm.L1T.StateEqual(&src.l1t, l1tBase)
}

func ctaEqual(c *ctaRT, src *ctaSnap) bool {
	if c.Launch != src.Launch || c.prog != src.prog || c.schedID != src.schedID {
		return false
	}
	if c.X != src.X || c.Y != src.Y || c.live != src.live || c.threads != src.threads {
		return false
	}
	if c.rfBase != src.rfBase || c.rfSize != src.rfSize || c.smBase != src.smBase || c.smSize != src.smSize {
		return false
	}
	if !slices.Equal(c.Params, src.Params) {
		return false
	}
	if !slices.Equal(c.meta, src.meta) || !slices.Equal(c.preds, src.preds) {
		return false
	}
	if len(c.warps) != len(src.warps) {
		return false
	}
	for i, w := range c.warps {
		ws := &src.warps[i]
		if w.FullMask != ws.fullMask || w.Exited != ws.exited || !slices.Equal(w.Stack, ws.stack) {
			return false
		}
	}
	return true
}

// footprint approximates the retained size of the snapshot excluding the
// shareable storage pages (device memory, register files, shared memories,
// cache sets).
func (s *Snapshot) footprint() int64 {
	n := s.l2.FixedBytes()
	n += int64(len(s.dmem.Pages())) * 16 // page headers
	for i := range s.sms {
		sm := &s.sms[i]
		n += int64(len(sm.rfPages)+len(sm.smPages)) * 16
		n += int64(len(sm.rfFree)+len(sm.smFree)) * 16
		n += sm.l1d.FixedBytes() + sm.l1t.FixedBytes()
		for j := range sm.ctas {
			c := &sm.ctas[j]
			n += int64(len(c.meta))*10 + int64(len(c.preds)) + 96
			for k := range c.warps {
				n += int64(len(c.warps[k].stack))*12 + 16
			}
		}
	}
	n += int64(len(s.launch.pending)) * 24
	n += int64(len(s.spans)) * 64
	n += int64(len(s.knames)) * 160
	return n + 256
}

// pageBytes sums the sizes of all storage pages, sharing ignored.
func (s *Snapshot) pageBytes() int64 {
	n := s.dmem.StateBytes() + freshSets(s.l2.Pages(), nil)
	for i := range s.sms {
		sm := &s.sms[i]
		for _, pg := range sm.rfPages {
			n += int64(len(pg)) * 4
		}
		for _, pg := range sm.smPages {
			n += int64(len(pg))
		}
		n += freshSets(sm.l1d.Pages(), nil) + freshSets(sm.l1t.Pages(), nil)
	}
	return n
}

// SnapshotSet holds the checkpoints of one reference run, ordered by cycle.
// It is written single-threaded during the reference run and read-only
// afterwards, so concurrent resumed runs may share it without locking.
//
// A memory budget bounds the retained bytes: when an appended snapshot
// pushes the set over budget, the stride doubles and snapshots that fall
// off the widened grid are evicted, preserving the invariant that every
// retained cycle is a multiple of the current stride. Retained bytes are
// exact under page sharing: a page aliased by several snapshots counts
// once (see share for why counting along the chain is enough).
type SnapshotSet struct {
	stride  int64
	budget  int64
	snaps   []*Snapshot
	bytes   int64
	evicted int64
}

// NewSnapshotSet creates a set capturing every stride-th cycle, retaining at
// most budgetBytes of snapshot state (<= 0 means unlimited). A stride <= 0
// disables capture.
func NewSnapshotSet(stride, budgetBytes int64) *SnapshotSet {
	return &SnapshotSet{stride: stride, budget: budgetBytes}
}

// Len returns the number of retained snapshots.
func (s *SnapshotSet) Len() int { return len(s.snaps) }

// Snap returns the i-th retained snapshot in cycle order.
func (s *SnapshotSet) Snap(i int) *Snapshot { return s.snaps[i] }

// Bytes returns the retained size of all snapshots, counting pages shared
// between snapshots once.
func (s *SnapshotSet) Bytes() int64 { return s.bytes }

// Stride returns the current capture stride in cycles (0 when capture has
// been disabled by budget pressure).
func (s *SnapshotSet) Stride() int64 { return s.stride }

// Evicted returns the number of snapshots dropped to fit the budget.
func (s *SnapshotSet) Evicted() int64 { return s.evicted }

// recount recomputes the retained bytes of the set in one pass over its
// snapshots, each adding its share against the one before it.
func (s *SnapshotSet) recount() {
	var n int64
	var prev *Snapshot
	for _, snap := range s.snaps {
		n += snap.share(prev)
		prev = snap
	}
	s.bytes = n
}

// share returns what snap adds to the retained bytes of a set whose previous
// retained snapshot is prev (nil for the first): its fixed state plus every
// storage page that does not alias prev's page at the same index.
//
// That is the exact distinct-page total. A capture aliases only its
// provenance base's page at the same index, and the base is the capture
// before it, so the captures holding one page array form a consecutive run;
// the retained snapshots holding it are then consecutive in the set too,
// and the array is counted once, at the first of them. Eviction keeps this
// true: dropping a snapshot from the middle of a run leaves its neighbours
// holding the array adjacent.
func (snap *Snapshot) share(prev *Snapshot) int64 {
	if prev == nil {
		prev = &Snapshot{sms: make([]smSnap, len(snap.sms))} // shares nothing
	}
	n := snap.fixed + freshPages(snap.dmem.Pages(), prev.dmem.Pages(), 1) + freshSets(snap.l2.Pages(), prev.l2.Pages())
	for i := range snap.sms {
		sm, ps := &snap.sms[i], &prev.sms[i]
		n += freshPages(sm.rfPages, ps.rfPages, 4) + freshPages(sm.smPages, ps.smPages, 1)
		n += freshSets(sm.l1d.Pages(), ps.l1d.Pages()) + freshSets(sm.l1t.Pages(), ps.l1t.Pages())
	}
	return n
}

// freshPages sums the sizes of the pages that do not alias prev's page at
// the same index; elem is the element size in bytes.
func freshPages[T uint32 | byte](pages, prev [][]T, elem int64) int64 {
	var n int64
	for p, pg := range pages {
		if p >= len(prev) || !sharedPage(pg, prev[p]) {
			n += int64(len(pg)) * elem
		}
	}
	return n
}

// freshSets sums the sizes of the cache set pages that are not prev's page
// at the same index.
func freshSets(pages, prev []*mem.SetPage) int64 {
	var n int64
	for s, pg := range pages {
		if s >= len(prev) || pg != prev[s] {
			n += pg.Bytes()
		}
	}
	return n
}

// nextGrid returns the first cycle after c on the set's stride grid — the
// only cycles at which offer captures and at can find a snapshot — or never
// for a nil set and once capture is disabled. The run loop keeps the answer
// and compares its cycle counter against it, so no cycle pays for a modulo;
// it asks again after every offer, which can widen the stride.
func (s *SnapshotSet) nextGrid(c int64) int64 {
	if s == nil || s.stride <= 0 {
		return never
	}
	return (c/s.stride + 1) * s.stride
}

// offer captures a snapshot of the runner, whose cycle the caller has found
// on the stride grid (nextGrid), then enforces the budget.
func (s *SnapshotSet) offer(r *runner) {
	s.add(r.capture())
	for s.budget > 0 && s.bytes > s.budget {
		if !s.widen() {
			break
		}
	}
}

// add appends a snapshot taken after every retained one, in O(its pages).
func (s *SnapshotSet) add(snap *Snapshot) {
	var prev *Snapshot
	if n := len(s.snaps); n > 0 {
		prev = s.snaps[n-1]
	}
	s.snaps = append(s.snaps, snap)
	s.bytes += snap.share(prev)
}

// widen doubles the stride and evicts snapshots off the widened grid. When
// no further widening can help (a single snapshot already exceeds the
// budget), the set is emptied and capture disabled; it returns false.
func (s *SnapshotSet) widen() bool {
	if len(s.snaps) <= 1 {
		s.evicted += int64(len(s.snaps))
		s.snaps = s.snaps[:0]
		s.bytes = 0
		s.stride = 0
		return false
	}
	s.stride *= 2
	kept := s.snaps[:0]
	for _, snap := range s.snaps {
		if snap.cycle%s.stride == 0 {
			kept = append(kept, snap)
		} else {
			s.evicted++
		}
	}
	for i := len(kept); i < len(s.snaps); i++ {
		s.snaps[i] = nil
	}
	s.snaps = kept
	s.recount()
	return true
}

// Before returns the latest snapshot taken strictly before cycle c, or nil.
// Strictness matters for resume: the injection hook fires at the top of the
// cycle body while snapshots capture its end, so a resumed run whose hook
// must fire at cycle c has to start from a cycle below it.
func (s *SnapshotSet) Before(c int64) *Snapshot {
	lo, hi := 0, len(s.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.snaps[mid].cycle < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return s.snaps[lo-1]
}

// at returns the snapshot taken exactly at cycle c, or nil.
func (s *SnapshotSet) at(c int64) *Snapshot {
	lo, hi := 0, len(s.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.snaps[mid].cycle < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.snaps) && s.snaps[lo].cycle == c {
		return s.snaps[lo]
	}
	return nil
}

// RunPool recycles the large machine-state arrays (register files, shared
// memories, caches, device memory image) across runs so a campaign's
// per-run cost is simulation, not allocation. Safe for concurrent use. A
// pooled machine is only reused for an identical configuration and device
// memory footprint (device.Memory.Footprint); fresh runs reset it to pristine state first, resumed
// runs are overwritten wholesale by the snapshot restore.
type RunPool struct {
	pool sync.Pool
}

// NewRunPool creates an empty pool.
func NewRunPool() *RunPool { return &RunPool{} }

type pooledMachine struct {
	cfg       gpu.Config
	footprint int
	sms       []*SM
	l2        *mem.Cache
	mem       *device.Memory
	// baseSnap is the provenance the machine's page-dirty bits were last
	// synced against; it travels with the arrays so a resumed run can
	// restore copy-on-write instead of wholesale.
	baseSnap *Snapshot
}

func (p *RunPool) get(cfg gpu.Config, footprint int) *pooledMachine {
	v := p.pool.Get()
	if v == nil {
		return nil
	}
	pm := v.(*pooledMachine)
	if pm.cfg != cfg || pm.footprint != footprint {
		// Wrong geometry: drop it; the next put replaces it with a matching
		// machine.
		return nil
	}
	return pm
}

func (p *RunPool) put(r *runner) {
	p.pool.Put(&pooledMachine{cfg: r.cfg, footprint: r.mem.Size(), sms: r.sms, l2: r.l2, mem: r.mem, baseSnap: r.baseSnap})
}
