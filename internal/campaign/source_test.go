package campaign

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many Rand calls each seed makes: enough that every
// stream crosses the switch from the initial register to the real source
// (output regTap+1) before and after the mid-stream Seed.
const sourceDraws = 1500

// edgeSeeds are the seeds math/rand normalises specially: the ones ≡ 0 mod
// 2³¹−1 (replaced by 89482311), negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1,
	lcgMod, -lcgMod, 2 * lcgMod,
	math.MinInt64, math.MaxInt64,
	zeroSeed,
}

// compareStreams makes the same sequence of draws on want and got, mixing
// every rand.Rand method the experiments call (op picks them) and reseeding
// both to reseed halfway, and reports the first draw where they differ.
func compareStreams(t *testing.T, seed, reseed int64, draws int, op *rand.Rand) {
	t.Helper()
	want, got := rand.New(rand.NewSource(seed)), runRand(seed)
	var wb, gb [11]byte
	for d := 0; d < draws; d++ {
		if d == draws/2 {
			want.Seed(reseed)
			got.Seed(reseed)
		}
		var w, g any
		switch k := op.Intn(8); k {
		case 0:
			n := 1 + op.Intn(1000)
			w, g = want.Intn(n), got.Intn(n)
		case 1:
			n := 1 + op.Int31n(math.MaxInt32)
			w, g = want.Int31n(n), got.Int31n(n)
		case 2:
			n := 1 + op.Int63n(math.MaxInt64)
			w, g = want.Int63n(n), got.Int63n(n)
		case 3:
			w, g = want.Int63(), got.Int63()
		case 4:
			w, g = want.Float64(), got.Float64()
		case 5:
			w, g = want.Uint64(), got.Uint64()
		case 6:
			n := op.Intn(len(wb) + 1)
			want.Read(wb[:n])
			got.Read(gb[:n])
			if !bytes.Equal(wb[:n], gb[:n]) {
				t.Fatalf("seed %d, draw %d: Read(%d) = %x, math/rand %x", seed, d, n, gb[:n], wb[:n])
			}
		default:
			w, g = want.Intn(1<<40), got.Intn(1<<40)
		}
		if w != g {
			t.Fatalf("seed %d (reseed %d), draw %d: %v, math/rand %v", seed, reseed, d, g, w)
		}
	}
}

// TestRunSourceMatchesMathRand holds runRand to the stream it documents:
// rand.New(rand.NewSource(seed)), call for call, across the switch at
// output regTap+1 and after a mid-stream Seed.
func TestRunSourceMatchesMathRand(t *testing.T) {
	op := rand.New(rand.NewSource(2024))
	seeds := append([]int64(nil), edgeSeeds...)
	for range 2000 {
		seeds = append(seeds, int64(op.Uint64()))
	}
	for i, seed := range seeds {
		compareStreams(t, seed, seeds[(i+1)%len(seeds)], sourceDraws, op)
	}
}

func FuzzRunSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(regTap+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compareStreams(t, seed, seed^int64(n), int(n), rand.New(rand.NewSource(seed)))
	})
}

// drawSink keeps the benchmarked draws live.
var drawSink int64

// BenchmarkRunRand prices one run's generator and its first draw, against
// the rand.NewSource it stands in for.
func BenchmarkRunRand(b *testing.B) {
	b.Run("runRand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drawSink += runRand(int64(i)).Int63()
		}
	})
	b.Run("NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drawSink += rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
}
