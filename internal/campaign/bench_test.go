// Contention benchmark for the campaign work queue: the seed
// implementation handed out run indices under a mutex; Run now uses a
// single atomic claim counter. runMutexQueue below preserves the old
// dispatch verbatim so the two can be compared at high worker counts with
// a deliberately cheap experiment (queue overhead dominates). The atomic
// side benchmarks through RunRange — the production entry point every
// dispatch path (Run, the service's chunked jobs) funnels into — with a
// nonzero start index so the range arithmetic is exercised too.
//
//	go test ./internal/campaign -bench=Queue -benchtime=10x
package campaign

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"gpurel/internal/faults"
)

// cheapExperiment is near-free so the benchmark measures dispatch cost,
// not injection cost. Its outcome is the run's first draw, so equal tallies
// mean the dispatch paths handed each run the same stream.
func cheapExperiment(run int, rng *rand.Rand) faults.Result {
	return faults.Result{Outcome: faults.Outcome(rng.Intn(int(faults.NumOutcomes)))}
}

// runMutexQueue is the pre-optimisation dispatcher over [0, opts.Runs): a
// mutex-guarded next counter. Kept test-only as the "before" side of the
// benchmark; it intentionally does NOT reuse the production pool, that is
// the point of the comparison. It seeds each run as RunRange does, so the
// two sides differ in dispatch only.
func runMutexQueue(opts Options, fn Experiment) Tally {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Runs {
		workers = opts.Runs
	}
	var (
		mu   sync.Mutex
		t    Tally
		next int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var local Tally
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= opts.Runs {
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

// benchRuns keeps one benchmark iteration under a second even on a single
// core; on many-core machines the mutex/atomic gap opens up at the higher
// worker multiples (raise benchRuns for a cleaner signal there).
const benchRuns = 20_000

func benchWorkers() []int {
	p := runtime.GOMAXPROCS(0)
	return []int{p, 4 * p, 16 * p}
}

func BenchmarkQueueMutex(b *testing.B) {
	for _, w := range benchWorkers() {
		b.Run(workersLabel(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl := runMutexQueue(Options{Runs: benchRuns, Seed: 1, Workers: w}, cheapExperiment)
				if tl.N != benchRuns {
					b.Fatalf("lost runs: %d", tl.N)
				}
			}
		})
	}
}

func BenchmarkQueueAtomic(b *testing.B) {
	for _, w := range benchWorkers() {
		b.Run(workersLabel(w), func(b *testing.B) {
			b.ReportAllocs()
			// A window [benchRuns, 2·benchRuns) of a larger campaign:
			// same workload size as the mutex side, but through the
			// range-clamping production path the service drives.
			opts := Options{Runs: 2 * benchRuns, Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				tl := RunRange(opts, benchRuns, 2*benchRuns, cheapExperiment)
				if tl.N != benchRuns {
					b.Fatalf("lost runs: %d", tl.N)
				}
			}
		})
	}
}

func workersLabel(w int) string { return "workers=" + strconv.Itoa(w) }

// TestQueueEquivalence pins the three dispatch paths — the old mutex
// queue, the atomic Run, and RunRange split at an arbitrary boundary and
// merged — to the tally of a plain loop that gives run i
// rand.New(rand.NewSource(Seed+i)), so the benchmark comparison stays
// apples-to-apples, the service's chunked resume invariant holds, and every
// run draws the stream the package documents.
func TestQueueEquivalence(t *testing.T) {
	opts := Options{Runs: 5000, Seed: 7, Workers: 8}
	var want Tally
	for i := range opts.Runs {
		want.Add(cheapExperiment(i, rand.New(rand.NewSource(opts.Seed+int64(i)))))
	}
	if got := runMutexQueue(opts, cheapExperiment); got != want {
		t.Errorf("mutex dispatch disagrees with the plain loop:\n%+v\n%+v", want, got)
	}
	if got := Run(opts, cheapExperiment); got != want {
		t.Errorf("atomic dispatch disagrees with the plain loop:\n%+v\n%+v", want, got)
	}
	for _, split := range []int{0, 1, 1234, 4999, 5000} {
		head := RunRange(opts, 0, split, cheapExperiment)
		tail := RunRange(opts, split, opts.Runs, cheapExperiment)
		head.Merge(tail)
		if head != want {
			t.Errorf("RunRange split at %d disagrees:\n%+v\n%+v", split, want, head)
		}
	}
}
