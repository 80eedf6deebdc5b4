package campaign

import "math/rand"

// Run i of a campaign draws the stream of rand.NewSource(Seed+i). Building
// that source costs about 15 µs and 5 KB: its Seed steps a Lehmer generator
// 1 841 times to fill a 607-word register, for a run that then draws a
// handful of values, and a pruned run simulates nothing after them.
// runSource yields the same stream without building the register.
//
// math/rand's source is an additive lagged-Fibonacci generator over that
// register: output k adds the words at feed index 334−k and tap index 607−k
// and stores the sum at the feed index. Up to output 273 both indices are
// words no earlier output has written, so output k ≤ 273 is the sum of two
// words of the initial register. Initial word i is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[n] = x0·48271ⁿ mod (2³¹−1) is the Lehmer generator n steps on from
// the normalised seed x0, and cooked is a fixed table of math/rand's. Each
// x[n] is one multiply by a power from lcgPow, so an early output costs six
// multiplies. From output 274 on, the register has been rewritten, and the
// source switches to a real rand.NewSource(seed) advanced by 273 outputs.
const (
	lcgMod   = 1<<31 - 1 // Lehmer modulus, math/rand's int32max
	lcgMul   = 48271     // Lehmer multiplier
	regLen   = 607       // lagged-Fibonacci register length
	regTap   = 273       // tap lag: outputs 1..regTap read only the initial register
	zeroSeed = 89482311  // what math/rand substitutes for a seed ≡ 0
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1), up to the last step seeding takes.
	lcgPow [24 + 3*(regLen-1)]uint64
	// cooked is math/rand's seeding table, recovered from its own output.
	cooked [regLen]uint64
)

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = lcgPow[n-1] * lcgMul % lcgMod
	}
	// Recover seed 1's initial register from its first 607 outputs. Output k
	// overwrites the feed word (334−k) mod 607, so after 607 outputs every
	// word holds a known output; undoing the outputs last to first subtracts
	// each one's tap word back out. XOR with seed 1's Lehmer words then
	// leaves cooked.
	src := rand.NewSource(1).(rand.Source64)
	var vec [regLen]uint64
	for k := 1; k <= regLen; k++ {
		vec[feedIndex(k)] = src.Uint64()
	}
	for k := regLen; k >= 1; k-- {
		vec[feedIndex(k)] -= vec[(regLen-k)%regLen]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// feedIndex is the register word output k (counted from 1) writes.
func feedIndex(k int) int { return (2*regLen - regTap - k) % regLen }

// lehmerWord packs the three Lehmer values seeding word i of the register.
func lehmerWord(x0 uint64, i int) uint64 {
	p := lcgPow[21+3*i : 24+3*i]
	return x0*p[0]%lcgMod<<40 ^ x0*p[1]%lcgMod<<20 ^ x0*p[2]%lcgMod
}

// runSource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) and is seeded in O(1); see the comment above.
// It is not safe for concurrent use, like the source it stands in for.
type runSource struct {
	seed int64
	x0   uint64        // seed normalised as math/rand normalises it
	k    int           // outputs drawn so far
	past rand.Source64 // the real source, once k passes regTap
}

// runRand returns the generator of a run with the given seed: the stream of
// rand.New(rand.NewSource(seed)). Every campaign run gets its generator here.
func runRand(seed int64) *rand.Rand {
	s := new(runSource)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *runSource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = zeroSeed
	}
	*s = runSource{seed: seed, x0: uint64(x)}
}

// Uint64 returns the next output of the stream.
func (s *runSource) Uint64() uint64 {
	if s.k < regTap {
		s.k++
		return s.word(regLen-regTap-s.k) + s.word(regLen-s.k)
	}
	if s.past == nil {
		s.past = rand.NewSource(s.seed).(rand.Source64)
		for range regTap {
			s.past.Uint64()
		}
	}
	return s.past.Uint64()
}

// word is word i of the initial register.
func (s *runSource) word(i int) uint64 { return lehmerWord(s.x0, i) ^ cooked[i] }

// Int63 returns the next output with its top bit cleared, as math/rand does.
func (s *runSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
