package funcsim

import (
	"bytes"
	"encoding/binary"
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
	end    *Result // the recorded run itself: what a joined run inherits
}

// boundary is the executor state between two CTAs, memory aside.
type boundary struct {
	pos                 position
	dyn, dst, load, use int64
	writes              int // writes[:writes] turn the job's image into memory here
}

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

// apply replays writes[from:to] onto an image.
func (c *Checkpoints) apply(image []byte, from, to int) {
	for _, w := range c.writes[from:to] {
		copy(image[w.addr:], c.data[w.off:w.off+w.n])
	}
}

// resume rebuilds the executor state of boundary k: memory from the job's
// image plus the log, counters and position from the boundary. An injection
// run also gets the shadow it needs to find a join.
func (r *runner) resume(job *device.Job, cps *Checkpoints, k int) position {
	b := &cps.bounds[k]
	r.mem = job.Mem.CloneFootprint(nil)
	image := r.mem.Raw()
	cps.apply(image, 0, b.writes)
	r.res.DynInstrs, r.res.DstCands, r.res.LoadCands, r.res.UseCands = b.dyn, b.dst, b.load, b.use
	r.winStart = [3]int64{b.dst, b.load, b.use}
	if r.opts.Inject != nil {
		r.shadow = bytes.Clone(image)
	}
	return b.pos
}

// join probes boundary ord of a resumed injection run against the record.
// Executor state between CTAs is position, counters and memory. Once the
// fault has fired the counters only feed the instruction budget, so equal
// position (the step count included: it decides the schedule budget) and
// byte-equal memory mean the rest of this run is the rest of the recorded
// one, instruction for instruction. The run then ends here with the recorded
// output, and times out exactly if the recorded suffix would have pushed it
// over its budget. A run whose schedule has left the recorded one (a host
// loop that iterates differently) is never probed again.
func (r *runner) join(ord int, pos position) bool {
	cps := r.opts.Resume
	if ord >= len(cps.bounds) || cps.bounds[ord].pos != pos {
		r.shadow = nil
		return false
	}
	b := &cps.bounds[ord]
	cps.apply(r.shadow, cps.bounds[ord-1].writes, b.writes)
	res, inj := r.res, r.opts.Inject
	if candidates(inj.Mode, res.DstCands, res.LoadCands, res.UseCands) <= inj.Index {
		return false
	}
	if !bytes.Equal(r.mem.PeekBytes(0, uint32(r.mem.Size())), r.shadow) {
		return false
	}
	res.Joined = true
	res.JoinSkipped = cps.end.DynInstrs - b.dyn
	res.DynInstrs += res.JoinSkipped
	if r.opts.MaxDynInstrs > 0 && res.DynInstrs > r.opts.MaxDynInstrs {
		res.TimedOut = true
		return true
	}
	res.Output, res.DUEFlag = cps.end.Output, cps.end.DUEFlag
	return true
}
