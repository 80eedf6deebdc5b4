// Package live is the live-interval record of a storage structure: for each
// site (a physical register, a shared-memory word, a 4-byte cache word) the
// injection cycles at which a flip of the stored value reaches a read. The
// interval engine in internal/flow records registers and shared memory into
// it, and the cache data record in internal/mem records cache words; both
// seal their tracks with Encode and answer every query through Sites.
//
// A site's value is live at cycle c when the first event on the site at or
// after cycle c is a read: a flip at the top of cycle c is then consumed. The
// record keeps this as intervals (Lo, Hi] — flips at Lo < c <= Hi are live,
// every other flip is dead — built from the site's events in execution
// order, so a read exposes the value back to the site's previous event and a
// kill (an overwrite or a deallocation) ends it.
package live

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Iv is a live interval: flips at cycles c with Lo < c <= Hi reach a read.
type Iv struct{ Lo, Hi int64 }

// Track is one site's recording state: the cycle of its most recent event
// and its merged live intervals so far. The zero Track is a site whose value
// was last killed at cycle 0. Events must come at nondecreasing cycles.
type Track struct {
	last int64
	ivs  []Iv
}

// Read records a read during cycle c: any flip after the site's previous
// event and at or before c is consumed.
func (t *Track) Read(c int64) {
	if c <= t.last {
		return
	}
	if n := len(t.ivs); n > 0 && t.ivs[n-1].Hi == t.last {
		t.ivs[n-1].Hi = c
	} else {
		t.ivs = append(t.ivs, Iv{Lo: t.last, Hi: c})
	}
	t.last = c
}

// Kill records an overwrite or deallocation during cycle c: a flip at or
// before c is dead unless a read came between it and c.
func (t *Track) Kill(c int64) { t.last = c }

// Group is the number of consecutive sites that share one used mask and one
// offset in the sealed form: 16 sites are one 64-byte cache frame of 4-byte
// words.
const Group = 16

// Sites is the sealed record of an array of site tracks. It is kept compact
// because a pruning front end keeps it for the life of its golden runs. The
// sites of group g that have live intervals are those whose bits are set in
// groups[g].used (bit k for site g*Group+k); they are stored from
// enc[groups[g].off] on, in site order, each a uvarint byte length followed
// by that many bytes of uvarint pairs (gap from the previous interval's Hi,
// length). A site without intervals costs one bit.
type Sites struct {
	n      int
	groups []group
	enc    []byte
}

// group is one group's mask and offset, side by side so that a query reads
// both from one cache line.
type group struct {
	off  int32
	used uint16
}

// Encode seals the tracks, site i being ts[i]. The tracks are not retained.
func Encode(ts []Track) Sites {
	s := Sites{n: len(ts), groups: make([]group, (len(ts)+Group-1)/Group)}
	var enc, pairs []byte
	for i, t := range ts {
		g := &s.groups[i/Group]
		if i%Group == 0 {
			g.off = int32(len(enc))
		}
		if len(t.ivs) == 0 {
			continue
		}
		pairs = pairs[:0]
		var prev int64
		for _, v := range t.ivs {
			pairs = binary.AppendUvarint(binary.AppendUvarint(pairs, uint64(v.Lo-prev)), uint64(v.Hi-v.Lo))
			prev = v.Hi
		}
		g.used |= 1 << (i % Group)
		enc = append(binary.AppendUvarint(enc, uint64(len(pairs))), pairs...)
	}
	s.enc = slices.Clone(enc) // exactly sized: the record outlives the trace
	return s
}

// Len returns the number of sites.
func (s *Sites) Len() int { return s.n }

// site returns site i's encoded pairs, nil when it has no intervals.
func (s *Sites) site(i int) []byte {
	g, bit := s.groups[i/Group], uint16(1)<<(i%Group)
	if g.used&bit == 0 {
		return nil
	}
	enc := s.enc[g.off:]
	for k := bits.OnesCount16(g.used & (bit - 1)); k > 0; k-- {
		n, m := uint64(enc[0]), 1 // most sites take under 128 bytes
		if n >= 0x80 {
			n, m = binary.Uvarint(enc)
		}
		enc = enc[m+int(n):]
	}
	n, m := binary.Uvarint(enc)
	return enc[m : m+int(n)]
}

// next splits the first interval off enc, a site's pairs, given the Hi of
// the interval before it.
func next(enc []byte, prev int64) (v Iv, rest []byte) {
	gap, n := binary.Uvarint(enc)
	length, m := binary.Uvarint(enc[n:])
	v.Lo = prev + int64(gap)
	v.Hi = v.Lo + int64(length)
	return v, enc[n+m:]
}

// Live reports whether a flip of site i at cycle c reaches a read, decoding
// the site's intervals in time order only as far as the cycle. False means
// the flip is provably dead.
func (s *Sites) Live(i int, c int64) bool {
	var v Iv
	for enc := s.site(i); len(enc) > 0; {
		if v, enc = next(enc, v.Hi); c <= v.Lo {
			return false
		}
		if c <= v.Hi {
			return true
		}
	}
	return false
}

// Ivs appends site i's live intervals, in time order, to dst.
func (s *Sites) Ivs(i int, dst []Iv) []Iv {
	var v Iv
	for enc := s.site(i); len(enc) > 0; {
		v, enc = next(enc, v.Hi)
		dst = append(dst, v)
	}
	return dst
}

// LiveCycles returns the site-cycles of cycles [from, to) at which a flip
// reaches a read.
func (s *Sites) LiveCycles(from, to int64) int64 {
	var live int64
	for rest := s.enc; len(rest) > 0; {
		n, m := binary.Uvarint(rest)
		enc := rest[m : m+int(n)]
		rest = rest[m+int(n):]
		var v Iv
		for len(enc) > 0 {
			v, enc = next(enc, v.Hi)
			if d := min(v.Hi+1, to) - max(v.Lo+1, from); d > 0 {
				live += d
			}
		}
	}
	return live
}

// Check validates the record of a run of the given number of cycles: each
// site's intervals are non-empty, sorted, non-overlapping and inside the run
// (0 <= Lo < Hi <= cycles). It returns the first violation found, or nil. A
// violation means the recorder is broken, not the traced program.
func (s *Sites) Check(cycles int64) error {
	var ivs []Iv
	for i := 0; i < s.n; i++ {
		ivs = s.Ivs(i, ivs[:0])
		for k, v := range ivs {
			switch {
			case v.Lo >= v.Hi:
				return fmt.Errorf("site %d: interval %d is empty or inverted: (%d, %d]", i, k, v.Lo, v.Hi)
			case v.Lo < 0 || v.Hi > cycles:
				return fmt.Errorf("site %d: interval %d (%d, %d] escapes the run of %d cycles", i, k, v.Lo, v.Hi, cycles)
			case k > 0 && v.Lo < ivs[k-1].Hi:
				return fmt.Errorf("site %d: intervals %d and %d overlap: (%d, %d] then (%d, %d]", i, k-1, k, ivs[k-1].Lo, ivs[k-1].Hi, v.Lo, v.Hi)
			}
		}
	}
	return nil
}
