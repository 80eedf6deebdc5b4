// Package campaign runs statistical fault-injection campaigns: n independent
// experiments with per-run deterministic seeds, fanned out over a worker
// pool, tallied into outcome-class counts with the 99%-confidence error
// margin of the paper's methodology (±2.35% at n=3000, §II-A).
package campaign

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"gpurel/internal/faults"
)

// Tally aggregates the outcomes of one campaign.
type Tally struct {
	N            int
	Counts       [faults.NumOutcomes]int
	CtrlAffected int // masked runs with a control-path deviation (Fig. 11)
}

// Add accumulates one result.
func (t *Tally) Add(r faults.Result) {
	t.N++
	t.Counts[r.Outcome]++
	if r.Outcome == faults.Masked && r.CtrlAffected {
		t.CtrlAffected++
	}
}

// Merge adds another tally.
func (t *Tally) Merge(o Tally) {
	t.N += o.N
	for i := range t.Counts {
		t.Counts[i] += o.Counts[i]
	}
	t.CtrlAffected += o.CtrlAffected
}

// Pct returns the percentage of outcome class o, in [0,1].
func (t Tally) Pct(o faults.Outcome) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Counts[o]) / float64(t.N)
}

// FR is the failure rate: the probability of all non-masked outcomes,
// FR = Pct(SDC) + Pct(Timeout) + Pct(DUE).
func (t Tally) FR() float64 {
	return t.Pct(faults.SDC) + t.Pct(faults.Timeout) + t.Pct(faults.DUE)
}

// CtrlAffectedPct is the fraction of all runs that were masked but
// control-path affected.
func (t Tally) CtrlAffectedPct() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.CtrlAffected) / float64(t.N)
}

// z99 is the normal quantile for 99% two-sided confidence.
const z99 = 2.5758293

// ErrMargin99 returns the normal-approximation half-width of the 99%
// confidence interval around the failure rate. At n=3000 and p=0.5 this is
// the paper's ±2.35%. The approximation degenerates at p=0 and p=1, where it
// collapses to a 0 half-width no matter how small n is — callers that make
// decisions from the margin (sequential stopping, report output) should use
// the Wilson-score Margin99/CI99 instead, which stay honest at the extremes.
func (t Tally) ErrMargin99() float64 {
	if t.N == 0 {
		return 0
	}
	p := t.FR()
	return z99 * math.Sqrt(p*(1-p)/float64(t.N))
}

// CI99 returns the Wilson-score 99% confidence interval [lo, hi] for the
// failure rate. Unlike the normal approximation it never collapses to a
// point at p=0 or p=1 (10 clean runs still leave hi ≈ 0.40), which is what
// makes it safe as a sequential stopping criterion. With no observations the
// interval is the vacuous [0, 1].
func (t Tally) CI99() (lo, hi float64) {
	return WilsonCI99(t.Counts[faults.SDC]+t.Counts[faults.Timeout]+t.Counts[faults.DUE], t.N)
}

// Margin99 is the half-width of the Wilson-score 99% interval — 0.5 for an
// empty tally rather than the false certainty of a 0 margin.
func (t Tally) Margin99() float64 {
	lo, hi := t.CI99()
	return (hi - lo) / 2
}

// WilsonCI99 computes the Wilson-score 99% interval for k successes in n
// trials. n <= 0 returns the vacuous [0, 1].
func WilsonCI99(k, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z99 * z99
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z99 * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	// The interval contains the point estimate analytically; at k = 0 and
	// k = n rounding can leave a bound an ulp inside it.
	lo, hi = min(center-half, p), max(center+half, p)
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WorstCaseMargin99 returns the margin at p=0.5, the a-priori bound quoted
// by the paper for its sample size. A sample of zero runs constrains nothing,
// so n <= 0 returns +Inf rather than a silent 0 (which read as perfect
// confidence); the campaign service rejects Runs <= 0 at submission instead.
func WorstCaseMargin99(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return z99 * math.Sqrt(0.25/float64(n))
}

// Experiment runs one injection with the given run index and seeded RNG.
type Experiment func(run int, rng *rand.Rand) faults.Result

// Options configures a campaign.
type Options struct {
	Runs    int
	Seed    int64
	Workers int // 0 = GOMAXPROCS
}

// Run executes the campaign. Results are deterministic for a given seed:
// run i draws the stream of rand.NewSource(Seed + i), independent of
// scheduling.
func Run(opts Options, fn Experiment) Tally {
	return RunRange(opts, 0, opts.Runs, fn)
}

// RunRange executes the half-open run-index range [from, to) of the
// campaign. Run i draws the stream of rand.NewSource(Seed + i) (from a
// source seeded in O(1), see runSource), so
// RunRange(o, 0, k, fn) merged with RunRange(o, k, n, fn) is identical to
// Run over n runs — the invariant checkpoint/resume in internal/service
// relies on. Ranges outside [0, Runs) are clamped.
func RunRange(opts Options, from, to int, fn Experiment) Tally {
	if from < 0 {
		from = 0
	}
	if to > opts.Runs {
		to = opts.Runs
	}
	n := to - from
	if n <= 0 {
		return Tally{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var t Tally
		for i := from; i < to; i++ {
			t.Add(fn(i, runRand(opts.Seed+int64(i))))
		}
		return t
	}
	// The work queue is a single atomic claim counter: each worker grabs
	// the next unclaimed run index with one uncontended-in-the-fast-path
	// Add instead of a mutex round trip (hot at high worker counts).
	var (
		mu   sync.Mutex
		t    Tally
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var local Tally
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					break
				}
				local.Add(fn(i, runRand(opts.Seed+int64(i))))
			}
			mu.Lock()
			t.Merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return t
}
