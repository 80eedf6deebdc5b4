package funcsim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"gpurel/internal/device"
)

// Checkpoints is the log a recording run leaves behind: one boundary per CTA
// start and host step. Memory is not copied per boundary; each boundary
// holds only the bytes that changed since the previous one, so the log of a
// whole application is a few tens of kilobytes where full images would be
// megabytes. Read-only once the run returns, so any number of resumed runs
// may share it.
type Checkpoints struct {
	bounds []boundary
	writes []write
	data   []byte  // payload of writes
	spans  []span  // the CTA footprints the boundaries index
	end    *Result // the recorded run itself: what a joined run inherits
}

// boundary is the executor state between two CTAs, memory aside.
type boundary struct {
	pos                 position
	dyn, dst, load, use int64
	writes              int // writes[:writes] turn the job's image into memory here
	// The CTA that starts here loaded the words of spans[loads:stores] and
	// stored the words of spans[stores:end]. A host step has neither.
	loads, stores, end int32
}

// span is the word-aligned byte range [lo, hi) of device memory. A CTA's
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

// footprint collects the words the CTA a recording run is executing loads
// and stores, one span per run of consecutive words: coalesced lanes touch
// consecutive words, so merging into the last span as the words arrive keeps
// the lists short.
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

// covers reports whether the word at a lies in one of the sorted spans.
func covers(spans []span, a uint32) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > a })
	return i < len(spans) && spans[i].lo <= a
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
		r.mem.ClearPageDirty()
	}
	return b.pos
}

// diffAudit is nil in every binary except this package's test binary, where
// the parity tests point it at a whole-memory comparison that the diff of
// every probed boundary must equal. Nothing outside _test files assigns it.
var diffAudit func(r *runner)

// probe compares boundary ord of a resumed injection run with the record.
// Executor state between CTAs is position, counters and memory. Once the
// fault has fired the counters only feed the instruction budget, so equal
// position (the step count included: it decides the schedule budget) and
// equal memory — an empty diff — mean the rest of this run is the rest of
// the recorded one, instruction for instruction, and the run joins. With a
// diff left, probe reports whether the CTA starting here, if the step is
// one, may be taken from the record instead (skippable). A run whose
// schedule has left the recorded one (a host loop that iterates
// differently) is never probed again.
func (r *runner) probe(ord int, pos position) (joined, skip bool) {
	cps := r.opts.Resume
	if ord >= len(cps.bounds) || cps.bounds[ord].pos != pos {
		r.shadow = nil
		return false, false
	}
	if r.skipped {
		r.skipped = false // skip has brought shadow and diff here already
	} else {
		from, to := cps.bounds[ord-1].writes, cps.bounds[ord].writes
		cps.apply(r.shadow, from, to)
		r.rediff(from, to)
	}
	if diffAudit != nil {
		diffAudit(r)
	}
	res, inj := r.res, r.opts.Inject
	if candidates(inj.Mode, res.DstCands, res.LoadCands, res.UseCands) <= inj.Index {
		return false, false
	}
	if len(r.diff) == 0 {
		r.join(ord)
		return true, false
	}
	return false, r.skippable(ord)
}

// rediff brings the diff — the words where the run's memory differs from the
// shadow — up to date after an executed step. A word can only have started
// or stopped differing where the run wrote (its dirty pages), where the
// record wrote (writes[from:to]) or where it differed before, so only those
// pages are compared: the memory's own dirty pages, with the other two
// marked into them.
func (r *runner) rediff(from, to int) {
	for _, w := range r.opts.Resume.writes[from:to] {
		r.mem.MarkPages(w.addr, w.n)
	}
	for _, a := range r.diff {
		r.mem.MarkPages(a, 4)
	}
	cur := r.mem.PeekBytes(0, uint32(r.mem.Size()))
	r.diff = r.diff[:0]
	r.mem.DirtyPages(func(lo, hi uint32) {
		r.diff = appendDiff(r.diff, cur, r.shadow, int(lo), int(hi))
	})
	r.mem.ClearPageDirty()
}

// appendDiff appends the address of every word of [lo, hi) where cur and old
// differ, in address order. lo and hi are word-aligned: device images are
// whole words (allocations are 256-byte aligned, capacities multiples of a
// page). Blocks are compared whole first: a page of the diff usually
// differs in a word or two.
func appendDiff(diff []uint32, cur, old []byte, lo, hi int) []uint32 {
	const block = 128
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		if bytes.Equal(cur[b:e], old[b:e]) {
			continue
		}
		for a := b; a < e; a += 4 {
			if binary.LittleEndian.Uint32(cur[a:]) != binary.LittleEndian.Uint32(old[a:]) {
				diff = append(diff, uint32(a))
			}
		}
	}
	return diff
}

// skippable reports whether the CTA at boundary ord, with the fault fired and
// a diff left, may be taken from the record. Registers, predicates and
// shared memory are cleared per CTA, and its parameters and special
// registers come from the position; so a CTA none of whose loads can return
// a differing word loads and stores golden's addresses and values step for
// step and executes golden's instruction count. The step after it must be a
// recorded boundary (the job's last step always executes), no tracer may be
// waiting for its events, and the instructions it takes over must fit the
// budget, so that a run that times out does so inside an executed CTA, at
// the count a replay reports.
func (r *runner) skippable(ord int) bool {
	cps := r.opts.Resume
	if ord+1 >= len(cps.bounds) || r.opts.Trace != nil {
		return false
	}
	if m := r.opts.MaxDynInstrs; m > 0 && r.res.DynInstrs+cps.bounds[ord+1].dyn-cps.bounds[ord].dyn > m {
		return false
	}
	loads := cps.loads(ord)
	for _, a := range r.diff {
		if covers(loads, a) {
			r.res.ReadRefusals++
			return false
		}
	}
	return true
}

// skip takes the CTA at boundary ord from the record: the record's writes up
// to boundary ord+1 go into memory and shadow, the counters advance by the
// recorded differences. A differing word the CTA stores now holds golden's
// value and leaves the diff; one it does not store keeps the run's value —
// the log's byte runs bridge gaps of unchanged bytes, which may hold it.
func (r *runner) skip(ord int, l *device.Launch) {
	cps, res := r.opts.Resume, r.res
	b, next := &cps.bounds[ord], &cps.bounds[ord+1]
	image := r.mem.Raw()
	r.saved = r.saved[:0]
	for _, a := range r.diff {
		r.saved = append(r.saved, binary.LittleEndian.Uint32(image[a:]))
	}
	cps.apply(image, b.writes, next.writes)
	cps.apply(r.shadow, b.writes, next.writes)
	stores, n := cps.stores(ord), 0
	for i, a := range r.diff {
		if covers(stores, a) {
			copy(image[a:a+4], r.shadow[a:a+4])
			continue
		}
		binary.LittleEndian.PutUint32(image[a:], r.saved[i])
		r.diff[n] = a
		n++
	}
	r.diff = r.diff[:n]
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
}

// join ends the run at boundary ord, whose memory it shares: with the
// recorded output, and timed out exactly if the recorded suffix would have
// pushed it over its budget.
func (r *runner) join(ord int) {
	cps, res := r.opts.Resume, r.res
	res.Joined = true
	res.JoinSkipped = cps.end.DynInstrs - cps.bounds[ord].dyn
	res.DynInstrs += res.JoinSkipped
	if r.opts.MaxDynInstrs > 0 && res.DynInstrs > r.opts.MaxDynInstrs {
		res.TimedOut = true
		return
	}
	res.Output, res.DUEFlag = cps.end.Output, cps.end.DUEFlag
}
