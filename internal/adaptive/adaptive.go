// Package adaptive is the statistics-driven campaign engine layered on
// campaign.RunRange. The paper's methodology fixes n=3000 injections per
// point (±2.35% at 99% confidence, §II-A), spending the same budget on
// near-zero-FR points as on high-variance ones; this package concentrates
// effort where the variance lives, without giving up determinism:
//
//   - sequential early stopping (Run): execute deterministic batches of
//     run indices and stop at the first batch boundary where the
//     Wilson-score 99% CI half-width for the failure rate reaches the
//     target margin. Batch k always covers the fixed run-index range
//     [k·Batch, (k+1)·Batch), so an interrupted-and-resumed campaign
//     tallies bit-identically to an uninterrupted one.
//
//   - stratified sampling with Neyman allocation (Stratified): run a pilot
//     per stratum, then allocate the remaining budget proportionally to
//     weight × estimated standard deviation, so dead strata (RF entries
//     that are never live, clean cache lines) stop at the pilot while
//     high-variance strata absorb the budget.
//
//   - liveness-guided pruning (Counters.Instrument): an experiment that can
//     classify provably-dead injection sites analytically (for the storage
//     arrays, microfi.InjectStatic over the golden run's internal/flow
//     interval map and cache frame record, which is how the study runs
//     every transient storage point) is wrapped into a plain
//     campaign.Experiment whose prune hits are tallied separately, keeping
//     the outcome classification bit-exact with brute force while skipping
//     the simulations.
package adaptive

import (
	"math"
	"math/rand"
	"sync/atomic"

	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// DefaultBatch is the evaluation granularity when a policy leaves Batch
// unset. It matches the campaign service's default checkpoint chunk, so a
// service-run adaptive job evaluates its stop rule at the same prefixes as a
// local one.
const DefaultBatch = 100

// Policy configures sequential early stopping.
type Policy struct {
	// Margin is the target Wilson-score 99% CI half-width on the failure
	// rate; the campaign stops at the first batch boundary at or under it.
	// <= 0 disables early stopping (fixed-n behaviour).
	Margin float64
	// Batch is the run-index granularity at which the stop rule is
	// evaluated (default DefaultBatch). The stop decision after batch k
	// depends only on the tally of runs [0, (k+1)·Batch), which is
	// deterministic for a given seed — never on scheduling or chunking.
	Batch int
	// MinRuns is the minimum sample before stopping is considered
	// (default Batch). Guards against stopping on a lucky tiny prefix.
	MinRuns int
}

func (p Policy) withDefaults() Policy {
	if p.Batch <= 0 {
		p.Batch = DefaultBatch
	}
	if p.MinRuns <= 0 {
		p.MinRuns = p.Batch
	}
	return p
}

// StopSatisfied reports whether a prefix tally meets the policy's stopping
// rule — the single predicate shared by Run, Stratified, and the campaign
// service's batch-by-batch scheduler, so all three stop at the same n.
func (p Policy) StopSatisfied(t campaign.Tally) bool {
	p = p.withDefaults()
	return p.Margin > 0 && t.N >= p.MinRuns && t.Margin99() <= p.Margin
}

// Result reports one adaptive campaign.
type Result struct {
	Tally        campaign.Tally
	Batches      int  // batches executed
	EarlyStopped bool // stopped by margin before exhausting opts.Runs
	Saved        int  // runs not executed thanks to early stopping
}

// Run executes an adaptive campaign over at most opts.Runs injections.
// Identical inputs produce identical results; the tally always equals
// campaign.RunRange(opts, 0, n, fn) for the n it stops at.
func Run(opts campaign.Options, pol Policy, fn campaign.Experiment) Result {
	pol = pol.withDefaults()
	var res Result
	res.Batches, res.EarlyStopped = runBatches(opts, pol, fn, &res.Tally, 0, opts.Runs)
	res.Saved = opts.Runs - res.Tally.N
	return res
}

// runBatches drives [from, to) in batch-aligned steps, merging into t, and
// reports (batches run, stopped early). Batch boundaries are absolute run
// indices (multiples of pol.Batch), not relative to from, so a campaign
// resumed mid-way evaluates the stop rule at the same prefixes.
func runBatches(opts campaign.Options, pol Policy, fn campaign.Experiment, t *campaign.Tally, from, to int) (int, bool) {
	batches := 0
	for from < to {
		next := (from/pol.Batch + 1) * pol.Batch
		if next > to {
			next = to
		}
		t.Merge(campaign.RunRange(opts, from, next, fn))
		batches++
		from = next
		if pol.StopSatisfied(*t) {
			return batches, from < to
		}
	}
	return batches, false
}

// PrunedExperiment is an experiment that may classify a run analytically
// instead of simulating it; the second return value reports a prune hit.
// The faults.Result must be bit-identical to what the simulated run would
// classify (microfi.InjectStatic guarantees this for RF, SMEM and cache
// sites).
type PrunedExperiment func(run int, rng *rand.Rand) (faults.Result, bool)

// Counters aggregates sampling-efficiency statistics across campaigns: how
// many injections were actually simulated, how many were classified
// analytically (prune hits), and how many were never run at all thanks to
// early stopping. Safe for concurrent use.
type Counters struct {
	Simulated atomic.Int64
	Pruned    atomic.Int64
	Saved     atomic.Int64
}

// Instrument adapts a PrunedExperiment into a plain campaign.Experiment,
// tallying prune hits and simulations into the counters (nil Counters are
// allowed and count nothing).
func (c *Counters) Instrument(fn PrunedExperiment) campaign.Experiment {
	return func(run int, rng *rand.Rand) faults.Result {
		r, pruned := fn(run, rng)
		if c != nil {
			if pruned {
				c.Pruned.Add(1)
			} else {
				c.Simulated.Add(1)
			}
		}
		return r
	}
}

// Count wraps a plain experiment so its executions land in Simulated.
func (c *Counters) Count(fn campaign.Experiment) campaign.Experiment {
	return func(run int, rng *rand.Rand) faults.Result {
		if c != nil {
			c.Simulated.Add(1)
		}
		return fn(run, rng)
	}
}

// neymanShares splits budget across strata proportionally to score, by
// largest-remainder rounding with index order as the deterministic
// tie-break, capping each stratum at its cap and waterfilling the excess.
// Σ shares == min(budget, Σ caps).
func neymanShares(budget int, scores []float64, caps []int) []int {
	n := len(scores)
	out := make([]int, n)
	if budget <= 0 {
		return out
	}
	// Degenerate scores (all zero): nothing demands budget; leave it unspent.
	var total float64
	for _, s := range scores {
		total += s
	}
	if total <= 0 || math.IsNaN(total) {
		return out
	}
	remaining := budget
	active := make([]bool, n)
	for i := range active {
		active[i] = caps[i] > 0 && scores[i] > 0
	}
	for remaining > 0 {
		var sum float64
		anyActive := false
		for i := range scores {
			if active[i] {
				sum += scores[i]
				anyActive = true
			}
		}
		if !anyActive {
			break
		}
		// Proportional floor allocation over active strata.
		give := make([]int, n)
		given := 0
		var fracs []frac
		for i := range scores {
			if !active[i] {
				continue
			}
			exact := float64(remaining) * scores[i] / sum
			give[i] = int(exact)
			given += give[i]
			fracs = append(fracs, frac{i, exact - float64(give[i])})
		}
		// Largest remainders take the leftover units (ties by index order —
		// fracs is built in index order and the sort is stable).
		left := remaining - given
		stableSortByFracDesc(fracs)
		for k := 0; k < len(fracs) && left > 0; k++ {
			give[fracs[k].i]++
			left--
		}
		// Apply caps; anything over a cap returns to the pool for the next
		// waterfill round.
		progress := false
		for i := range give {
			if give[i] == 0 {
				continue
			}
			room := caps[i] - out[i]
			take := give[i]
			if take > room {
				take = room
			}
			if take > 0 {
				out[i] += take
				remaining -= take
				progress = true
			}
			if out[i] >= caps[i] {
				active[i] = false
			}
		}
		if !progress {
			break
		}
	}
	return out
}

type frac struct {
	i int
	f float64
}

// stableSortByFracDesc is an insertion sort: fracs lists are tiny (one entry
// per stratum) and stability keeps the index-order tie-break deterministic.
func stableSortByFracDesc(fr []frac) {
	for i := 1; i < len(fr); i++ {
		for k := i; k > 0 && fr[k].f > fr[k-1].f; k-- {
			fr[k], fr[k-1] = fr[k-1], fr[k]
		}
	}
}
