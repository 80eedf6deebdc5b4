package funcsim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"gpurel/internal/device"
)

// Checkpoints is the log a recording run leaves behind: one boundary per step
// start — a CTA, a warp of a launch stepped per warp, a host step — and one
// at the end of the job, after its last step. Memory is not copied per
// boundary; each boundary holds only the bytes that changed since the
// previous one, so the log of a whole application is a few tens of
// kilobytes where full images would be megabytes. Read-only once the run
// returns, so any number of resumed runs may share it.
type Checkpoints struct {
	bounds []boundary
	writes []write
	data   []byte  // payload of writes
	spans  []span  // the CTA footprints the boundaries index
	end    *Result // the recorded run itself: what a joined run inherits
}

// boundary is the executor state between two steps, memory aside.
type boundary struct {
	pos                 position
	dyn, dst, load, use int64
	writes              int // writes[:writes] turn the job's image into memory here
	// The CTA or warp that starts here loaded the words of
	// spans[loads:stores] and stored the words of spans[stores:end]. A host
	// step and the end of the job have neither.
	loads, stores, end int32
}

// span is the word-aligned byte range [lo, hi) of device memory. A step's
// footprint is a sorted list of disjoint, non-adjacent spans.
type span struct{ lo, hi uint32 }

// write is one run of bytes that differ from the previous boundary.
type write struct{ addr, off, n uint32 }

// Len returns the number of boundaries; boundary 0 is the start of the job.
func (c *Checkpoints) Len() int { return len(c.bounds) }

// DeltaBytes returns the size of the memory log.
func (c *Checkpoints) DeltaBytes() int64 { return int64(len(c.data)) }

// DynInstrsAt returns the thread-instructions the recorded run had executed
// at boundary k: what resuming there skips.
func (c *Checkpoints) DynInstrsAt(k int) int64 { return c.bounds[k].dyn }

// BetweenWarps reports whether boundary k lies between two warps of one CTA.
func (c *Checkpoints) BetweenWarps(k int) bool { return c.bounds[k].pos.warp > 0 }

// candidates returns the counter an injection of the given mode indexes.
func candidates(mode InjectMode, dst, load, use int64) int64 {
	switch mode {
	case InjectDstLoad:
		return load
	case InjectUse:
		return use
	}
	return dst
}

// ForkPoint returns the last boundary the injection site has not yet passed:
// the recorded run and the faulty run are identical up to there.
func (c *Checkpoints) ForkPoint(inj Injection) int {
	after := sort.Search(len(c.bounds), func(k int) bool {
		b := &c.bounds[k]
		return candidates(inj.Mode, b.dst, b.load, b.use) > inj.Index
	})
	return max(after-1, 0)
}

// mergeGap is the longest stretch of unchanged bytes a write spans rather
// than paying for a second header.
const mergeGap = 8

// record appends the boundary at pos to the run's log. The shadow is memory
// as of the previous boundary and is advanced to the current one; only pages
// the executor dirtied in between are looked at.
func (r *runner) record(pos position) {
	c, res := r.res.Checkpoints, r.res
	if len(c.bounds) > 0 {
		c.closeFootprint(r.foot)
	}
	r.mem.DirtyPages(func(lo, hi uint32) {
		cur, old := r.mem.PeekBytes(lo, hi-lo), r.shadow[lo:hi]
		if bytes.Equal(cur, old) {
			return
		}
		for i := 0; i < len(cur); {
			if i+8 <= len(cur) && binary.LittleEndian.Uint64(cur[i:]) == binary.LittleEndian.Uint64(old[i:]) {
				i += 8
				continue
			}
			if cur[i] == old[i] {
				i++
				continue
			}
			end := i + 1 // one past the last differing byte of this write
			for j := end; j < len(cur) && j-end < mergeGap; j++ {
				if cur[j] != old[j] {
					end = j + 1
				}
			}
			c.writes = append(c.writes, write{addr: lo + uint32(i), off: uint32(len(c.data)), n: uint32(end - i)})
			c.data = append(c.data, cur[i:end]...)
			i = end
		}
		copy(old, cur)
	})
	r.mem.ClearPageDirty()
	c.bounds = append(c.bounds, boundary{
		pos: pos, dyn: res.DynInstrs, dst: res.DstCands, load: res.LoadCands, use: res.UseCands,
		writes: len(c.writes),
	})
}

// footprint collects the words the step being executed loads and stores,
// one span per run of consecutive words: coalesced lanes touch consecutive
// words, so merging into the last span as the words arrive keeps the lists
// short. A recording run files both lists per boundary; a resumed injection
// run collects only the stores, the words its diff must look at.
type footprint struct{ loads, stores []span }

// addWord adds the word at a to a footprint list.
func addWord(s []span, a uint32) []span {
	if n := len(s); n > 0 {
		if last := &s[n-1]; a+4 >= last.lo && a <= last.hi {
			last.lo, last.hi = min(last.lo, a), max(last.hi, a+4)
			return s
		}
	}
	return append(s, span{a, a + 4})
}

// closeFootprint files the footprint of the step that started at the last
// boundary, sorted and merged, and empties it for the next step.
func (c *Checkpoints) closeFootprint(f *footprint) {
	b := &c.bounds[len(c.bounds)-1]
	b.loads = int32(len(c.spans))
	c.spans = appendMerged(c.spans, f.loads)
	b.stores = int32(len(c.spans))
	c.spans = appendMerged(c.spans, f.stores)
	b.end = int32(len(c.spans))
	f.loads, f.stores = f.loads[:0], f.stores[:0]
}

// appendMerged appends s to dst as a sorted list of disjoint, non-adjacent
// spans.
func appendMerged(dst, s []span) []span {
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	start := len(dst)
	for _, x := range s {
		if n := len(dst); n > start && x.lo <= dst[n-1].hi {
			dst[n-1].hi = max(dst[n-1].hi, x.hi)
			continue
		}
		dst = append(dst, x)
	}
	return dst
}

// loads and stores return the recorded footprint of the step at boundary k.
func (c *Checkpoints) loads(k int) []span {
	return c.spans[c.bounds[k].loads:c.bounds[k].stores]
}

func (c *Checkpoints) stores(k int) []span {
	return c.spans[c.bounds[k].stores:c.bounds[k].end]
}

// apply replays writes[from:to] onto an image.
func (c *Checkpoints) apply(image []byte, from, to int) {
	for _, w := range c.writes[from:to] {
		copy(image[w.addr:], c.data[w.off:w.off+w.n])
	}
}

// resume rebuilds the executor state of boundary k: memory from the job's
// image plus the log, counters and position from the boundary. An injection
// run also gets the shadow it compares itself with, equal to its memory: the
// diff starts empty, with no page dirty.
func (r *runner) resume(job *device.Job, cps *Checkpoints, k int) position {
	b := &cps.bounds[k]
	r.mem = job.Mem.CloneFootprint(nil)
	image := r.mem.Raw()
	cps.apply(image, 0, b.writes)
	r.res.DynInstrs, r.res.DstCands, r.res.LoadCands, r.res.UseCands = b.dyn, b.dst, b.load, b.use
	r.winStart = [3]int64{b.dst, b.load, b.use}
	if r.opts.Inject != nil {
		r.shadow = bytes.Clone(image)
		r.diff = newWordSet(len(image))
		r.foot = &footprint{}
		r.mem.ClearPageDirty()
	}
	return b.pos
}

// diffAudit is nil in every binary except this package's test binary, where
// the parity tests point it at a whole-memory comparison that the diff of
// every probed boundary must equal. Nothing outside _test files assigns it.
var diffAudit func(r *runner)

// probe compares boundary ord of a resumed injection run with the record.
// Executor state between steps is position, counters and memory. Once the
// fault has fired the counters only feed the instruction budget, so equal
// position (the step count included: it decides the schedule budget) and
// equal memory — an empty diff — mean the rest of this run is the rest of
// the recorded one, instruction for instruction, and the run joins. With a
// diff left, probe reports whether the CTA or warp starting here, if the
// step is one, may be taken from the record instead (skippable). A run
// whose schedule has left the recorded one (a host loop that iterates
// differently) is never probed again.
func (r *runner) probe(ord int, pos position) (joined, skip bool) {
	cps := r.opts.Resume
	if ord >= len(cps.bounds) || cps.bounds[ord].pos != pos {
		r.shadow, r.foot = nil, nil
		return false, false
	}
	if r.skipped {
		r.skipped = false // skip has brought shadow and diff here already
	} else {
		r.rediff(cps.bounds[ord-1].writes, cps.bounds[ord].writes)
	}
	if diffAudit != nil {
		diffAudit(r)
	}
	res, inj := r.res, r.opts.Inject
	if candidates(inj.Mode, res.DstCands, res.LoadCands, res.UseCands) <= inj.Index {
		return false, false
	}
	if r.diff.n == 0 {
		r.join(ord)
		return true, false
	}
	return false, r.skippable(ord)
}

// rediff brings shadow and diff up to date after an executed step: the
// shadow takes the record's writes[from:to]. A word can only have started
// or stopped differing where the record wrote or where the run wrote — the
// step's stores, or the pages a host step dirtied — so only those words are
// compared: the cost is what the step and the record wrote, never the size
// of the diff.
func (r *runner) rediff(from, to int) {
	cps := r.opts.Resume
	cur := r.mem.PeekBytes(0, uint32(r.mem.Size()))
	for _, w := range cps.writes[from:to] {
		copy(r.shadow[w.addr:], cps.data[w.off:w.off+w.n])
		r.remark(cur, w.addr, w.addr+w.n)
	}
	for _, s := range r.foot.stores {
		r.remark(cur, s.lo, s.hi)
	}
	r.foot.stores = r.foot.stores[:0]
	if r.hostRan {
		r.mem.DirtyPages(func(lo, hi uint32) { r.remark(cur, lo, hi) })
		r.hostRan = false
	}
	r.mem.ClearPageDirty()
}

// remark sets the diff membership of every word overlapping [lo, hi) to
// whether the run's memory cur and the shadow differ there. An aligned
// block of equal words leaves the diff in one step: most of a page a host
// step dirtied is unchanged.
func (r *runner) remark(cur []byte, lo, hi uint32) {
	for a := lo &^ 3; a < hi; a += 4 {
		if a%blockBytes == 0 && a+blockBytes <= hi && bytes.Equal(cur[a:a+blockBytes], r.shadow[a:a+blockBytes]) {
			r.diff.clearBlock(a)
			a += blockBytes - 4
			continue
		}
		r.diff.set(a, binary.LittleEndian.Uint32(cur[a:]) != binary.LittleEndian.Uint32(r.shadow[a:]))
	}
}

// skippable reports whether the CTA or warp at boundary ord, with the fault
// fired and a diff left, may be taken from the record. Registers,
// predicates and shared memory are cleared per step, and its parameters and
// special registers come from the position; so a step none of whose loads
// can return a differing word loads and stores golden's addresses and
// values instruction for instruction and executes golden's instruction
// count. The step after it must be a recorded boundary (every step has one
// in a complete record: the end of the job is a boundary too), no tracer
// may be waiting for its events, and the instructions it takes over must
// fit the budget, so that a run that times out does so inside an executed
// step, at the count a replay reports. The test is per load span, so it
// costs the words the step loads, not the size of the diff.
func (r *runner) skippable(ord int) bool {
	cps := r.opts.Resume
	if ord+1 >= len(cps.bounds) || r.opts.Trace != nil {
		return false
	}
	if m := r.opts.MaxDynInstrs; m > 0 && r.res.DynInstrs+cps.bounds[ord+1].dyn-cps.bounds[ord].dyn > m {
		return false
	}
	for _, s := range cps.loads(ord) {
		if r.diff.any(s.lo, s.hi) {
			r.res.ReadRefusals++
			return false
		}
	}
	return true
}

// skip takes the CTA or warp at boundary ord from the record: the record's
// writes up to boundary ord+1 go into shadow and memory, and the counters
// advance by the recorded differences. A diff word keeps the run's value
// against the log — the log's byte runs bridge gaps of unchanged bytes,
// which may hold it — unless the step stores it: then it takes golden's
// value from the shadow and leaves the diff. Every other word the log
// writes was equal in both and stays so. The cost is the step's writes and
// stores.
func (r *runner) skip(ord int, l *device.Launch) {
	cps, res := r.opts.Resume, r.res
	b, next := &cps.bounds[ord], &cps.bounds[ord+1]
	image := r.mem.Raw()
	for _, w := range cps.writes[b.writes:next.writes] {
		data, end := cps.data[w.off:w.off+w.n], w.addr+w.n
		copy(r.shadow[w.addr:], data)
		if !r.diff.any(w.addr&^3, end) {
			copy(image[w.addr:], data)
			continue
		}
		for a := w.addr; a < end; {
			e := min(a&^3+4, end) // the rest of a's word
			if !r.diff.has(a &^ 3) {
				copy(image[a:e], data[a-w.addr:])
			}
			a = e
		}
	}
	for _, s := range cps.stores(ord) {
		r.diff.drop(s.lo, s.hi, func(a uint32) { copy(image[a:a+4], r.shadow[a:a+4]) })
	}
	r.mem.ClearPageDirty()
	r.skipped = true

	dyn := next.dyn - b.dyn
	res.DynInstrs += dyn
	res.DstCands += next.dst - b.dst
	res.LoadCands += next.load - b.load
	res.UseCands += next.use - b.use
	r.kernelCounts(l.Name()).DynInstrs += dyn
	res.Skips++
	res.SkipInstrs += dyn
	res.LastSkip = ord
	if r.perWarp {
		res.WarpSkips++
	}
}

// join ends the run at boundary ord, whose memory it shares: with the
// recorded output, and timed out exactly if the recorded suffix would have
// pushed it over its budget.
func (r *runner) join(ord int) {
	cps, res := r.opts.Resume, r.res
	res.Joined, res.JoinedAt = true, ord
	res.JoinSkipped = cps.end.DynInstrs - cps.bounds[ord].dyn
	res.DynInstrs += res.JoinSkipped
	if r.opts.MaxDynInstrs > 0 && res.DynInstrs > r.opts.MaxDynInstrs {
		res.TimedOut = true
		return
	}
	res.Output, res.DUEFlag = cps.end.Output, cps.end.DUEFlag
}

// blockBytes is the memory a word of a wordSet's bits covers: 64 words.
const blockBytes = 256

// wordSet is a set of word addresses of device memory: one bit per word and
// the number of members.
type wordSet struct {
	bits []uint64
	n    int
}

// newWordSet returns the empty set over a memory of size bytes.
func newWordSet(size int) wordSet {
	return wordSet{bits: make([]uint64, (size+blockBytes-1)/blockBytes)}
}

// has reports whether the word at a is a member.
func (s *wordSet) has(a uint32) bool { return s.bits[a/blockBytes]>>(a/4%64)&1 != 0 }

// set makes the word at a a member or not.
func (s *wordSet) set(a uint32, in bool) {
	w, m := &s.bits[a/blockBytes], uint64(1)<<(a/4%64)
	switch {
	case in && *w&m == 0:
		*w |= m
		s.n++
	case !in && *w&m != 0:
		*w &^= m
		s.n--
	}
}

// clearBlock removes the 64 words of the aligned block at a.
func (s *wordSet) clearBlock(a uint32) {
	w := &s.bits[a/blockBytes]
	s.n -= bits.OnesCount64(*w)
	*w = 0
}

// mask returns the bits of the words of [lo, hi) in bitset word i.
func mask(i int, lo, hi uint32) uint64 {
	first, last := max(int(lo/4), 64*i), min(int((hi+3)/4), 64*i+64) // word indices [first, last)
	if first >= last {
		return 0
	}
	return (^uint64(0) >> (64 - (last - first))) << (first - 64*i)
}

// any reports whether a word overlapping [lo, hi) is a member.
func (s *wordSet) any(lo, hi uint32) bool {
	if s.n == 0 || lo >= hi {
		return false
	}
	for i := int(lo / blockBytes); i <= int((hi-1)/blockBytes); i++ {
		if s.bits[i]&mask(i, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// drop removes the members overlapping [lo, hi), calling fn with each.
func (s *wordSet) drop(lo, hi uint32, fn func(a uint32)) {
	if s.n == 0 || lo >= hi {
		return
	}
	for i := int(lo / blockBytes); i <= int((hi-1)/blockBytes); i++ {
		for m := s.bits[i] & mask(i, lo, hi); m != 0; m &= m - 1 {
			fn(uint32(64*i+bits.TrailingZeros64(m)) * 4)
		}
		took := s.bits[i] & mask(i, lo, hi)
		s.bits[i] &^= took
		s.n -= bits.OnesCount64(took)
	}
}
