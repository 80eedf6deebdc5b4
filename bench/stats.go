package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"gpurel/internal/campaign"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile names the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it, the rule every timing in this benchmark follows.
func tailPercentile(n int) (q float64, label string) {
	switch {
	case n >= 10000:
		return 0.999, "p99.9"
	case n >= 1000:
		return 0.99, "p99"
	case n >= 100:
		return 0.90, "p90"
	}
	return 0.5, "p50"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest is an order-sensitive FNV-1a hash over a stream of labelled
// tallies and counts.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(label string, vals ...int64) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%016x|%s|%v", d.h, label, vals)
	d.h = f.Sum64()
}

func (d *digest) addTally(label string, t campaign.Tally) {
	d.add(label, int64(t.N), int64(t.Counts[0]), int64(t.Counts[1]), int64(t.Counts[2]), int64(t.Counts[3]), int64(t.CtrlAffected))
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }
