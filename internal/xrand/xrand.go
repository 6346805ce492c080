// Package xrand is a devirtualized, bit-exact replica of the subset of
// math/rand that the deterministic packages draw from: the Mitchell/Reeds
// additive lagged-Fibonacci source behind rand.NewSource, plus Float64,
// Intn, the ziggurat NormFloat64 and ExpFloat64 on top of it. It is the
// deterministic packages' one generator (cyclops-vet rejects math/rand
// there): trace synthesis, fault planning, the slot engine's rescue
// stream and every simulated device, rig, program and supervisor draw
// from it. One-shot streams hold a Rand by value and Seed it in place.
//
// Why a replica: the corpus hot path draws and seeds often. Every math/rand
// draw is a virtual Int63 call through the rand.Source interface that the
// compiler cannot inline, and every rand.NewSource seeds its 607-word
// register through a serial chain of 1841 Lehmer steps. Replicating the
// generator with concrete types removes the interface dispatch and lets
// the draws inline into the synthesis loop; seeding by jump-ahead (Seed)
// turns the chain into independent multiplications. The output is the
// exact same stream bit for bit — the sequence contract is pinned by
// TestSequenceMatchesMathRand, TestSeedMatchesMathRand and
// TestExpFloat64MatchesMathRand against math/rand itself across seeds
// (including zero, negative and multiples of 2³¹−1).
//
// The draw algorithms below are transcribed from Go's math/rand (rng.go,
// rand.go, normal.go, exp.go) and must not be "improved": any change to
// evaluation order or constants breaks stream equality and with it the
// repo-wide determinism contract (DESIGN.md §2).
//
// # Jump-ahead seeding
//
// rngSource.Seed walks the Lehmer generator x ← 48271·x mod (2³¹−1) from
// x₀ = seed mod (2³¹−1): 20 warm-up steps, then three steps per register
// word, so word i is built from x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ. Since
// xⱼ = 48271ʲ·x₀ mod (2³¹−1), Seed reads each of them as one modular
// product of x₀ and a precomputed power (seedPow). Both are residues in
// [1, 2³¹−2], so the product is exact in 64 bits, and 2³¹−1 is a Mersenne
// number: p mod (2³¹−1) is (p & (2³¹−1)) + (p >> 31), which lies below
// 2·(2³¹−1), less 2³¹−1 if it reaches it (mulMod). Schrage's method in the
// stdlib computes the same residue with no overflow either, so each word
// is the stdlib's word exactly, and the 1821 products are independent
// instead of one dependent chain.
package xrand

import "math"

const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1

	rn = 3.442619855899      // normal ziggurat base-strip bound
	re = 7.69711747013104972 // exponential ziggurat base-strip bound
)

// Rand is a concrete (non-interface) replica of
// rand.New(rand.NewSource(seed)): the 607-word additive generator with
// tap 273, consumed directly by the derived draws.
//
// Instead of stepping the feedback register one word per draw (two
// index decrements, two wraparound branches, two loads and a store, as
// rngSource.Uint64 does), the register advances a full period of 607
// words at a time into buf, in exactly the order the stdlib's
// decrementing tap/feed walk would emit them. The per-draw fast path is
// then a bounds check and a buffered load — and small enough for the
// compiler to inline into Int63/Float64 callers. The emitted stream is
// unchanged word for word (TestSequenceMatchesMathRand).
type Rand struct {
	pos int // next unread word in buf; rngLen means empty
	buf [rngLen]int64
	vec [rngLen]int64
}

// seedPowLen covers the Lehmer powers rngSource.Seed walks through: 20
// warm-up steps and three per register word, x₁ … x₁₈₄₁.
const seedPowLen = 21 + 3*rngLen

// seedPow[j] is 48271ʲ mod (2³¹−1), the multiplier that jumps the Lehmer
// seeding generator j steps ahead.
var seedPow = func() (t [seedPowLen]uint32) {
	t[0] = 1
	for j := 1; j < seedPowLen; j++ {
		t[j] = mulMod(t[j-1], 48271)
	}
	return
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 by one Mersenne fold:
// p = a·b < (2³¹−2)², so p>>31 ≤ 2³¹−4 and p&(2³¹−1) ≤ 2³¹−1, their sum
// is below 2·(2³¹−1), and one conditional subtract finishes the residue.
func mulMod(a, b uint32) uint32 {
	p := uint64(a) * uint64(b)
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return uint32(p)
}

// New returns a generator whose output stream is bit-identical to
// rand.New(rand.NewSource(seed)) for the methods defined here.
func New(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed re-initializes the feedback register exactly as rngSource.Seed
// does: reduce the seed mod 2³¹−1, then fill each word from three 20-bit
// chunks of the Lehmer seeding sequence XORed with the precomputed
// rngCooked state. The sequence values are read by jump-ahead (see the
// package doc), not by stepping the generator.
//
//cyclops:hotpath re-seeded once per fault class by every fault.Plan call and once per faulted multi-TX trace by the slot engine; zero-alloc contract pinned by TestSeedZeroAllocs and make alloc-check
func (r *Rand) Seed(seed int64) {
	r.pos = rngLen // buffer empty; first draw refills

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint32(seed)
	for i := range r.vec {
		j := 21 + 3*i
		u := int64(mulMod(seedPow[j], x)) << 40
		u ^= int64(mulMod(seedPow[j+1], x)) << 20
		u ^= int64(mulMod(seedPow[j+2], x))
		r.vec[i] = u ^ rngCooked[i]
	}
}

// refill advances the register 607 steps and stores the outputs in
// draw order. The stdlib walk starts at tap=0, feed=334 and decrements
// both before each draw, so the first 334 outputs update words
// 333,332,…,0 (whose tap partner is k+273) and the remaining 273
// update words 606,…,334 (tap partner k−334); after 607 draws the
// indices are back at their start, so one refill is exactly one period.
func (r *Rand) refill() {
	i := 0
	for k := rngLen - rngTap - 1; k >= 0; k-- {
		x := r.vec[k] + r.vec[k+rngTap]
		r.vec[k] = x
		r.buf[i] = x
		i++
	}
	for k := rngLen - 1; k >= rngLen-rngTap; k-- {
		x := r.vec[k] + r.vec[k-(rngLen-rngTap)]
		r.vec[k] = x
		r.buf[i] = x
		i++
	}
	r.pos = 0
}

// Uint64 is the generator step: the next buffered lagged-Fibonacci word.
// The local-pos shape lets the compiler prove pos < len(buf) on both
// branches and drop the bounds check from the fast path.
func (r *Rand) Uint64() uint64 {
	pos := r.pos
	if pos >= rngLen {
		r.refill()
		pos = 0
	}
	x := r.buf[pos]
	r.pos = pos + 1
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint32 returns a 32-bit integer (top bits of Int63, as math/rand).
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int31n returns an integer in [0,n). Replicates math/rand's rejection
// sampling exactly, including the power-of-two mask fast path.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		//cyclops:panic-ok replicates math/rand.Int31n's contract exactly (stream and behavior parity)
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns an integer in [0,n). The trace synthesizer only draws
// small n, but the Int63n branch is kept so the replica stays a drop-in
// for any math/rand caller.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		//cyclops:panic-ok replicates math/rand.Intn's contract exactly (stream and behavior parity)
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Int63n returns an integer in [0,n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		//cyclops:panic-ok replicates math/rand.Int63n's contract exactly (stream and behavior parity)
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Float64 returns a float64 in [0,1). The legacy 63-bit construction
// with resample-on-1.0 is kept verbatim for stream equality.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// absInt32 is branchless |i| (including MinInt32 → 2³¹): the ziggurat
// tests it on every draw with a uniformly random sign bit, so a branch
// here mispredicts half the time.
func absInt32(i int32) uint32 {
	m := i >> 31 // 0 or -1
	return uint32((i ^ m) - m)
}

// NormFloat64 returns a standard-normal float64 via the Marsaglia/Tsang
// ziggurat, identical draw-for-draw to math/rand's (same tables, same
// fast path, same base-strip tail loop). The >99% fast path is split
// from the wedge/tail work so the common case stays branch-light; the
// split changes no draw order (normSlow resumes the stdlib loop at the
// exact point the fast path failed).
func (r *Rand) NormFloat64() float64 {
	j := int32(r.Uint32()) // Possibly negative
	i := j & 0x7F
	x := float64(j) * wn64[i]
	if absInt32(j) < kn[i] {
		// This case should be hit better than 99% of the time.
		return x
	}
	return r.normSlow(j, i, x)
}

// Norm6 fills out with the next six NormFloat64 draws — exactly the
// values six successive NormFloat64 calls would return, in order. The
// trace synthesizer consumes its six per-sample OU noise draws through
// this: one call instead of six, with one buffered-word availability
// check covering all six fast paths in the common case (the ziggurat
// fast path consumes exactly one word per draw; rejection work drops to
// the same normSlow as the scalar entry point, preserving the stream).
func (r *Rand) Norm6(out *[6]float64) {
	pos := r.pos
	if pos+6 <= rngLen {
		for d := 0; d < 6; d++ {
			v := r.buf[pos]
			pos++
			j := int32(uint32(int64(uint64(v)&rngMask) >> 31))
			i := j & 0x7F
			x := float64(j) * wn64[i]
			if absInt32(j) < kn[i] {
				out[d] = x
				continue
			}
			// Rare: hand the in-flight draw to the slow path (which
			// draws more words itself) and finish the rest scalar.
			r.pos = pos
			out[d] = r.normSlow(j, i, x)
			for d++; d < 6; d++ {
				out[d] = r.NormFloat64()
			}
			return
		}
		r.pos = pos
		return
	}
	for d := 0; d < 6; d++ {
		out[d] = r.NormFloat64()
	}
}

func (r *Rand) normSlow(j, i int32, x float64) float64 {
	for {
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(r.Uint32())
		i = j & 0x7F
		x = float64(j) * wn64[i]
		if absInt32(j) < kn[i] {
			return x
		}
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1 via
// the Marsaglia/Tsang ziggurat, identical draw-for-draw to math/rand's
// (same tables, same wedge test, same base-strip tail).
func (r *Rand) ExpFloat64() float64 {
	for {
		j := r.Uint32()
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}
