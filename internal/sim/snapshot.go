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
// copy-on-write sharing, through the one page table of internal/pages: the
// runner tracks which pages may have diverged
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
	"gpurel/internal/mem"
	"gpurel/internal/pages"
	"gpurel/internal/uop"
)

// Snapshot is a deep (but structurally shared) copy of complete machine
// state at the end of one cycle. Immutable once captured; safe for
// concurrent read-only use by many resumed/probed runs.
type Snapshot struct {
	runScalars

	// The storage pages, through the one page table (internal/pages):
	// device memory, the runner's arrays (each SM's register file and
	// shared memory) and its caches, index for index.
	dmem   device.PagedState
	arrays []pages.Table[pages.Block]
	caches []mem.CacheState

	sms    []smSnap
	launch launchState
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

// smSnap is an SM's state beyond its storage pages.
type smSnap struct {
	rfFree, smFree []block
	threadsUsed    int
	issuePtr       int
	ctas           []ctaSnap
}

type ctaSnap struct {
	uop.CTA // Params is read-only during a run: shared, not copied
	ctaScalars

	warps []warpSnap
	meta  []warpMeta
	preds []uint8
}

type warpSnap struct {
	fullMask, exited uint32
	stack            []exec.Ent
}

// dmemState, table and cacheState return the snapshot's device memory,
// array i and cache i as a provenance base. A nil snapshot is no base: it
// has no pages, so a save against it copies every page and a restore or a
// compare skips none.
func (s *Snapshot) dmemState() *device.PagedState {
	if s == nil {
		return nil
	}
	return &s.dmem
}

func (s *Snapshot) table(i int) pages.Table[pages.Block] {
	if s == nil {
		return nil
	}
	return s.arrays[i]
}

func (s *Snapshot) cacheState(i int) *mem.CacheState {
	if s == nil {
		return nil
	}
	return &s.caches[i]
}

// capture deep-copies the runner's state, sharing storage pages with the
// current provenance base where the dirty bits prove them unchanged, then
// re-bases the runner's provenance on the new snapshot. Only called from
// inside the runLaunch cycle loop, so r.cur is always non-nil: every
// checkpoint lies within some kernel launch (the cycle counter only
// advances there).
func (r *runner) capture() *Snapshot {
	if dirtyAudit != nil && r.baseSnap != nil {
		dirtyAudit(r)
	}
	base := r.baseSnap
	s := &Snapshot{
		runScalars: r.runScalars,
		arrays:     make([]pages.Table[pages.Block], len(r.arrays)),
		caches:     make([]mem.CacheState, len(r.caches)),
		sms:        make([]smSnap, len(r.sms)),
		launch:     launchState{r.cur.launchScalars, slices.Clone(r.cur.pending)},
		spans:      slices.Clone(r.res.Spans),
		knames:     slices.Clone(r.knames),
		kstats:     slices.Clone(r.kstats),
	}
	r.mem.SavePaged(&s.dmem, base.dmemState())
	for i, a := range r.arrays {
		s.arrays[i] = pages.Save(a, base.table(i))
	}
	for i, c := range r.caches {
		c.SaveState(&s.caches[i], base.cacheState(i))
	}
	for i, sm := range r.sms {
		dst := &s.sms[i]
		dst.rfFree = slices.Clone(sm.rfAlloc.free)
		dst.smFree = slices.Clone(sm.smAlloc.free)
		dst.threadsUsed = sm.threadsUsed
		dst.issuePtr = sm.issuePtr
		dst.ctas = make([]ctaSnap, len(sm.ctas))
		for j, c := range sm.ctas {
			captureCTA(c, &dst.ctas[j])
		}
	}
	s.fixed = s.footprint()
	s.bytes = s.fixed + s.pageBytes()
	r.syncDirty(s)
	return s
}

func captureCTA(c *ctaRT, dst *ctaSnap) {
	dst.CTA = c.CTA
	dst.ctaScalars = c.ctaScalars
	dst.warps = make([]warpSnap, len(c.warps))
	for i, w := range c.warps {
		dst.warps[i] = warpSnap{fullMask: w.FullMask, exited: w.Exited, stack: slices.Clone(w.Stack)}
	}
	dst.meta = slices.Clone(c.meta)
	dst.preds = slices.Clone(c.preds)
}

// syncDirty re-bases the runner's page provenance on s: the runner's state
// equals s when it is called, so every page is clean against s and every
// dirty bit clears, along with the marks-done flags of warps and CTAs. From
// here on each array marks its own writes (see SM.rf).
func (r *runner) syncDirty(s *Snapshot) {
	r.baseSnap = s
	r.mem.ClearPageDirty()
	for _, a := range r.arrays {
		a.Dirty().Clear()
	}
	for _, c := range r.caches {
		c.ClearPageDirty()
	}
	for _, sm := range r.sms {
		for i := range sm.slots {
			sm.slots[i].rfMarked = false
		}
		for _, c := range sm.ctas {
			c.smMarked = false
		}
	}
}

// dirtyAudit is nil in every binary except this package's own test binary,
// where a test can point it at a check that every page whose dirty bit is
// clear still equals the provenance base's page. capture, restore and
// matches call it whenever they are about to trust the bits. Nothing outside
// _test files assigns it.
var dirtyAudit func(r *runner)

// restore overwrites the runner's state from the snapshot, skipping storage
// pages that the provenance base proves are already identical, and re-bases
// the provenance on s. The runner must have been built for the same job and
// configuration; the injection hook is re-armed (snapshots are taken on
// fault-free reference runs, strictly before any resumed run's injection
// cycle).
func (r *runner) restore(s *Snapshot) {
	if len(r.sms) != len(s.sms) || len(r.arrays) != len(s.arrays) {
		panic("sim: restore onto a machine with a different SM count")
	}
	if dirtyAudit != nil && r.baseSnap != nil {
		dirtyAudit(r)
	}
	base := r.baseSnap
	r.runScalars = s.runScalars
	r.fired = false
	r.mem.LoadPaged(&s.dmem, base.dmemState())
	for i, a := range r.arrays {
		if a.Dirty().Len() != len(s.arrays[i]) {
			panic("sim: restore onto a machine with different SM geometry")
		}
		pages.Load(a, s.arrays[i], base.table(i))
	}
	for i, c := range r.caches {
		c.LoadState(&s.caches[i], base.cacheState(i))
	}
	for i, sm := range r.sms {
		src := &s.sms[i]
		sm.rfAlloc.free = append(sm.rfAlloc.free[:0], src.rfFree...)
		sm.smAlloc.free = append(sm.smAlloc.free[:0], src.smFree...)
		sm.threadsUsed = src.threadsUsed
		sm.issuePtr = src.issuePtr
		sm.ctas = sm.ctas[:0]
		for j := range src.ctas {
			sm.ctas = append(sm.ctas, r.restoreCTA(&src.ctas[j]))
		}
		sm.rebuildSlots()
		sm.nextReady = 0
	}
	r.cur = &launchState{s.launch.launchScalars, slices.Clone(s.launch.pending)}
	r.res.Spans = append(r.res.Spans[:0], s.spans...)
	r.knames = append(r.knames[:0], s.knames...)
	r.kstats = append(r.kstats[:0], s.kstats...)
	r.syncDirty(s)
}

func (r *runner) restoreCTA(src *ctaSnap) *ctaRT {
	c := &ctaRT{
		CTA:        src.CTA,
		ctaScalars: src.ctaScalars,
		uprog:      uop.Cached(src.prog),
		meta:       slices.Clone(src.meta),
		preds:      slices.Clone(src.preds),
		smTrack:    r.opts.SchedTrace != nil,
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
	if r.runScalars != s.runScalars || r.cur.launchScalars != s.launch.launchScalars {
		return false
	}
	if !slices.Equal(r.cur.pending, s.launch.pending) || !slices.Equal(r.res.Spans, s.spans) {
		return false
	}
	if !slices.Equal(r.knames, s.knames) || !slices.Equal(r.kstats, s.kstats) {
		return false
	}
	if len(r.sms) != len(s.sms) {
		return false
	}
	// Last-diff probe: a run that has not converged yet usually stays
	// diverged at the very page that failed the previous compare (the
	// flipped word persists until overwritten), so checking that one page
	// first turns the common failing compare into a single-page memcmp.
	// Purely derived state: a stale probe just falls through to the full
	// compare.
	if d := r.lastDiff; d.valid {
		if !r.arrays[d.array].Equal(d.page, s.arrays[d.array][d.page]) {
			return false
		}
		r.lastDiff.valid = false
	}
	for i, sm := range r.sms {
		if !smEqual(sm, &s.sms[i]) {
			return false
		}
	}
	if dirtyAudit != nil && r.baseSnap != nil {
		dirtyAudit(r)
	}
	// Register and shared-memory pages before device memory and cache
	// sets: a run that has not converged yet usually differs there first,
	// and the last-diff probe remembers those pages.
	base := r.baseSnap
	for i, a := range r.arrays {
		if p := pages.Diff(a, s.arrays[i], base.table(i)); p >= 0 {
			r.lastDiff = diffProbe{array: i, page: p, valid: true}
			return false
		}
	}
	if !r.mem.PagedEqual(&s.dmem, base.dmemState()) {
		return false
	}
	for i, c := range r.caches {
		if !c.StateEqual(&s.caches[i], base.cacheState(i)) {
			return false
		}
	}
	return true
}

// smEqual compares an SM's state beyond its storage pages.
func smEqual(sm *SM, src *smSnap) bool {
	if sm.threadsUsed != src.threadsUsed || sm.issuePtr != src.issuePtr || len(sm.ctas) != len(src.ctas) {
		return false
	}
	for i, c := range sm.ctas {
		if !ctaEqual(c, &src.ctas[i]) {
			return false
		}
	}
	return slices.Equal(sm.rfAlloc.free, src.rfFree) && slices.Equal(sm.smAlloc.free, src.smFree)
}

func ctaEqual(c *ctaRT, src *ctaSnap) bool {
	if c.ctaScalars != src.ctaScalars || c.Launch != src.Launch || c.X != src.X || c.Y != src.Y {
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
	n := int64(len(s.dmem.Pages())) * 16 // page headers
	for _, t := range s.arrays {
		n += int64(len(t)) * 16
	}
	for i := range s.caches {
		n += s.caches[i].FixedBytes()
	}
	for i := range s.sms {
		sm := &s.sms[i]
		n += int64(len(sm.rfFree)+len(sm.smFree)) * 16
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
	n := s.dmem.StateBytes()
	for _, t := range s.arrays {
		n += t.Size()
	}
	for i := range s.caches {
		n += s.caches[i].Pages().Size()
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
// storage page that does not alias prev's page at the same index. That is
// the exact distinct-page total: a capture aliases only its provenance
// base, the capture before it (pages.Table.Fresh), and eviction keeps the
// snapshots holding one page adjacent.
func (snap *Snapshot) share(prev *Snapshot) int64 {
	n := snap.fixed + snap.dmem.Pages().Fresh(prev.dmemState().Pages())
	for i, t := range snap.arrays {
		n += t.Fresh(prev.table(i))
	}
	for i := range snap.caches {
		n += snap.caches[i].Pages().Fresh(prev.cacheState(i).Pages())
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
