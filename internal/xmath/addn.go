package xmath

import (
	"math"
	"math/bits"
)

const (
	fracBits = 52
	fracMask = 1<<fracBits - 1
	// sigTop is the largest integer significand of a binade, 2⁵³−1.
	sigTop = 1<<(fracBits+1) - 1
)

// AddN returns g after n successive g += c, for every input: the same
// float64 the loop
//
//	for ; n > 0; n-- {
//		g += c
//	}
//
// returns, bit for bit, in O(binades crossed) steps rather than O(n).
//
// Write g = G·u with u = ulp(g) and the integer significand G in
// [2⁵², 2⁵³). While a sum stays in g's binade the representable values
// near it are the integer multiples of u, so one round-to-nearest add
// lands on (G + R)·u with R = round(c/u): the step is the same integer R
// on every add, and k adds move G by exactly k·R as long as G + k·R ≤
// 2⁵³−1. AddN takes those k adds at once, the binade-crossing add in
// hardware, and starts over in the next binade. c/u is a dyadic rational
// (c and u are both floats, u a power of two), so its rounding is read off
// the low bits of c's significand. When c/u is exactly k+½, the tie goes
// to the even neighbour: from an even G every step is the even one of k
// and k+1, and from an odd G the first add (taken in hardware) lands on an
// even significand. R = 0 means g + c rounds back to g: g is a fixed point
// and every further add returns it.
//
// The fast path needs finite, positive, normal g and c. Any other input
// (zero, subnormal, negative, infinite or NaN) steps the plain loop; once
// such a step leaves g positive and normal the fast path resumes.
//
//cyclops:hotpath bulk float accumulation of the slot engine's goodput and obs.Counter.AddN; zero-alloc contract pinned by TestAddNZeroAllocs and make alloc-check
func AddN(g, c float64, n int) float64 {
	cb := math.Float64bits(c)
	ce := cb >> fracBits // exponent field; the sign bit makes it ≥ 2048
	C := cb&fracMask | 1<<fracBits
	for n > 0 {
		gb := math.Float64bits(g)
		ge := gb >> fracBits
		if ge-1 >= 0x7fe || ce-1 >= 0x7fe || ge <= ce {
			// Off the fast path, or c ≥ g's binade: each add crosses.
			g += c
			n--
			continue
		}
		s := ge - ce // c/u = C / 2ˢ
		if s > fracBits+1 {
			return g // c < u/2: g is a fixed point
		}
		G := gb&fracMask | 1<<fracBits
		R := C >> s
		rem, half := C&(1<<s-1), uint64(1)<<(s-1)
		switch {
		case rem > half:
			R++
		case rem == half:
			if G&1 == 1 {
				g += c
				n--
				continue
			}
			R += R & 1
		}
		if R == 0 {
			return g
		}
		k := uint64(n)
		if hi, lo := bits.Mul64(k, R); hi != 0 || lo > sigTop-G {
			k = (sigTop - G) / R
		}
		G += k * R
		n -= int(k)
		g = math.Float64frombits(ge<<fracBits | G&fracMask)
		if n > 0 {
			g += c
			n--
		}
	}
	return g
}
