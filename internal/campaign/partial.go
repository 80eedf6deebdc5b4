package campaign

import "sort"

// Partial is the tally of one completed half-open run-index range [From, To)
// of a campaign — the unit of work a distributed executor (a fleet worker, a
// scheduler lane) reports back. Because run i draws the stream of
// rand.NewSource(Seed+i), a Partial is a pure function of (spec, From, To):
// two executors that run the same range report bit-identical partials, which
// is what makes merging idempotent by range.
type Partial struct {
	From  int
	To    int
	Tally Tally
}

// PrefixMerger folds completed Partials, arriving in any order, into the
// ordered tally of a contiguous run-index prefix [0, To()). Out-of-order
// partials are stashed until the gap before them closes; Advance then merges
// them one at a time, so callers can evaluate order-sensitive decision rules
// (the adaptive stop rule) at every intermediate prefix boundary — exactly
// the prefixes a sequential single-node execution would have evaluated.
//
// Offer is idempotent by range: a partial overlapping work already merged or
// stashed is dropped, so duplicated execution (an expired lease re-run by
// another worker whose original report arrives late) merges exactly once.
//
// PrefixMerger is not safe for concurrent use; callers hold their own lock.
type PrefixMerger struct {
	to    int
	tally Tally
	// stash is keyed by From; disjoint; every range starts >= to. It is
	// made by the first Offer and released (nil) by Seed and DropStash: a
	// map keeps its buckets after its last delete.
	stash map[int]Partial
}

// NewPrefixMerger returns an empty merger (prefix [0, 0)).
func NewPrefixMerger() *PrefixMerger {
	return &PrefixMerger{}
}

// Seed resets the merger to a checkpointed prefix: tally t covering exactly
// [0, to). The stash is discarded.
func (m *PrefixMerger) Seed(to int, t Tally) {
	m.to = to
	m.tally = t
	m.stash = nil
}

// Offer adds one completed partial to the stash. It reports false — and
// changes nothing — when the range is empty or overlaps work already merged
// or stashed (a duplicate or late re-report of the same deterministic work).
func (m *PrefixMerger) Offer(p Partial) bool {
	if p.To <= p.From || p.From < m.to {
		return false
	}
	for _, q := range m.stash {
		if p.From < q.To && q.From < p.To {
			return false
		}
	}
	if m.stash == nil {
		m.stash = map[int]Partial{}
	}
	m.stash[p.From] = p
	return true
}

// Advance merges the next contiguous stashed partial into the prefix and
// returns the new prefix end with its tally. ok is false when the partial
// starting at To() has not arrived yet. Merging one partial per call lets
// the caller evaluate its stop rule at every boundary in order.
func (m *PrefixMerger) Advance() (to int, t Tally, ok bool) {
	p, ok := m.stash[m.to]
	if !ok {
		return m.to, m.tally, false
	}
	delete(m.stash, m.to)
	m.tally.Merge(p.Tally)
	m.to = p.To
	return m.to, m.tally, true
}

// To returns the contiguous prefix end: every run in [0, To()) is merged.
func (m *PrefixMerger) To() int { return m.to }

// Tally returns the tally of exactly the merged prefix [0, To()).
func (m *PrefixMerger) Tally() Tally { return m.tally }

// StashedRuns counts completed-but-not-yet-contiguous runs held in the stash.
func (m *PrefixMerger) StashedRuns() int {
	n := 0
	for _, p := range m.stash {
		n += p.To - p.From
	}
	return n
}

// StashRanges returns the stashed ranges sorted by From (tallies omitted) —
// the completed work beyond the prefix, used by schedulers to compute what is
// still outstanding.
func (m *PrefixMerger) StashRanges() [][2]int {
	froms := make([]int, 0, len(m.stash))
	for from := range m.stash { //relint:allow — keys are sorted before use
		froms = append(froms, from)
	}
	sort.Ints(froms)
	out := make([][2]int, 0, len(froms))
	for _, from := range froms {
		out = append(out, [2]int{from, m.stash[from].To})
	}
	return out
}

// DropStash discards every stashed partial and releases the stash's memory —
// used when a job finishes: an adaptive stop rule fired at a prefix boundary
// and the work beyond it is no longer wanted, or the prefix covers the whole
// campaign.
func (m *PrefixMerger) DropStash() {
	m.stash = nil
}
