// Package xmath holds bit-exact fast paths for the float computations on
// the corpus hot path. Like internal/xrand, nothing here is a new
// approximation: every function computes the identical IEEE-754 result
// to its counterpart — a math call, or for AddN a loop of float adds
// (pinned by exhaustive randomized equality tests) — it just gets there
// with less work for the arguments the corpus actually produces.
//
// The big win is Sincos3: head-pose synthesis evaluates three
// independent sin/cos pairs per sample (yaw/pitch/roll half-angles).
// Calling math.Sincos three times serializes three ~50-cycle
// latency-bound Horner chains behind call boundaries; evaluating them in
// one straight-line body lets the compiler interleave the chains and the
// out-of-order core overlap them. On top of that, small angles
// (|x| < π/4 — always true for pitch/roll half-angles) skip the
// Cody-Waite reduction entirely: in that range the reduction is exactly
// the identity (j = 0, y = 0, so z = ((x−0·PI4A)−0·PI4B)−0·PI4C = x),
// so the skip is bit-identical by construction, not by approximation.
package xmath

import "math"

// Cody-Waite extended-precision decomposition of π/4, transcribed from
// math/sin.go. The three-term subtraction keeps the reduced argument
// accurate to the last bit for |x| below reduceThreshold.
const (
	pi4a = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4b = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4c = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	// reduceThreshold mirrors math/trig_reduce.go: above it the stdlib
	// switches to Payne-Hanek reduction, which we do not replicate —
	// those arguments (|x| ≥ 2²⁹) fall back to math.Sincos itself.
	reduceThreshold = 1 << 29
)

// Polynomial coefficients for sin/cos on [0, π/4], transcribed from
// math/sin.go (Cephes cmath release 2.8).
var sinPoly = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosPoly = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// sincosKernel evaluates the two polynomials at the reduced argument z
// and applies the octant fixups. It is the shared tail of the scalar and
// batched entry points; the expression shapes are verbatim from
// math.Sincos so every rounding step matches.
func sincosKernel(z float64, j uint64, sinSign, cosSign bool) (sin, cos float64) {
	zz := z * z
	cos = 1.0 - 0.5*zz + zz*zz*((((((cosPoly[0]*zz)+cosPoly[1])*zz+cosPoly[2])*zz+cosPoly[3])*zz+cosPoly[4])*zz+cosPoly[5])
	sin = z + z*zz*((((((sinPoly[0]*zz)+sinPoly[1])*zz+sinPoly[2])*zz+sinPoly[3])*zz+sinPoly[4])*zz+sinPoly[5])
	if j == 1 || j == 2 {
		sin, cos = cos, sin
	}
	if cosSign {
		cos = -cos
	}
	if sinSign {
		sin = -sin
	}
	return
}

// sincosReduce maps x to a reduced argument z ∈ [0, π/4], octant j, and
// the two sign flips, exactly as math.Sincos does for finite
// |x| < reduceThreshold. ok is false when the caller must fall back to
// math.Sincos (zero, non-finite, or Payne-Hanek range).
func sincosReduce(x float64) (z float64, j uint64, sinSign, cosSign, ok bool) {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, 0, false, false, false
	}
	if x < 0 {
		x = -x
		sinSign = true
	}
	if x >= reduceThreshold {
		return 0, 0, false, false, false
	}

	g := x * (4 / math.Pi)
	if g < 1 {
		// j = 0: y = 0 and the Cody-Waite chain is exactly the identity
		// (z = ((x−0·pi4a)−0·pi4b)−0·pi4c = x), with no octant fixups.
		return x, 0, sinSign, false, true
	}
	j = uint64(g)   // integer part of x/(Pi/4)
	y := float64(j) // integer part of x/(Pi/4), as float
	if j&1 == 1 {   // map zeros to origin
		j++
		y++
	}
	j &= 7
	z = ((x - y*pi4a) - y*pi4b) - y*pi4c
	if j > 3 { // reflect in x axis
		j -= 4
		sinSign, cosSign = !sinSign, !cosSign
	}
	if j > 1 {
		cosSign = !cosSign
	}
	return z, j, sinSign, cosSign, true
}

// Sincos returns math.Sincos(x), bit for bit, skipping the shared
// special-case dispatch for the common finite small-magnitude arguments.
func Sincos(x float64) (sin, cos float64) {
	z, j, ss, cs, ok := sincosReduce(x)
	if !ok {
		return math.Sincos(x)
	}
	return sincosKernel(z, j, ss, cs)
}

// Sincos3 evaluates three independent sin/cos pairs in one straight-line
// body. Each element's result is bit-identical to math.Sincos of that
// element (the elements are independent, so evaluating them together
// reorders nothing within any one of them); elements outside the
// replicated range fall back to math.Sincos individually.
func Sincos3(a, b, c float64) (sinA, cosA, sinB, cosB, sinC, cosC float64) {
	// Reduction, manually unrolled per element (sincosReduce is over the
	// inline budget, and a call here would serialize the three chains).
	// Each block is operation-for-operation sincosReduce.
	var (
		za, zb, zc    float64
		ja, jb, jc    uint64
		ssa, ssb, ssc bool
		csa, csb, csc bool
	)
	oka, okb, okc := false, false, false
	xa, xb, xc := a, b, c
	if xa < 0 {
		xa = -xa
		ssa = true
	}
	if xb < 0 {
		xb = -xb
		ssb = true
	}
	if xc < 0 {
		xc = -xc
		ssc = true
	}
	// x != x filters NaN; positive zero and +Inf fail the range check.
	// The g < 1 fast branch is the package-doc small-angle skip: j = 0
	// makes the Cody-Waite chain exactly the identity, so z = x with no
	// octant fixups. Pitch/roll half-angles always take it, and yaw's
	// random walk crosses π/4 rarely, so the branches stay predicted.
	if xa > 0 && xa < reduceThreshold {
		if ga := xa * (4 / math.Pi); ga < 1 {
			za = xa
		} else {
			ja = uint64(ga)
			ya := float64(ja)
			if ja&1 == 1 {
				ja++
				ya++
			}
			ja &= 7
			za = ((xa - ya*pi4a) - ya*pi4b) - ya*pi4c
			if ja > 3 {
				ja -= 4
				ssa, csa = !ssa, !csa
			}
			if ja > 1 {
				csa = !csa
			}
		}
		oka = true
	}
	if xb > 0 && xb < reduceThreshold {
		if gb := xb * (4 / math.Pi); gb < 1 {
			zb = xb
		} else {
			jb = uint64(gb)
			yb := float64(jb)
			if jb&1 == 1 {
				jb++
				yb++
			}
			jb &= 7
			zb = ((xb - yb*pi4a) - yb*pi4b) - yb*pi4c
			if jb > 3 {
				jb -= 4
				ssb, csb = !ssb, !csb
			}
			if jb > 1 {
				csb = !csb
			}
		}
		okb = true
	}
	if xc > 0 && xc < reduceThreshold {
		if gc := xc * (4 / math.Pi); gc < 1 {
			zc = xc
		} else {
			jc = uint64(gc)
			yc := float64(jc)
			if jc&1 == 1 {
				jc++
				yc++
			}
			jc &= 7
			zc = ((xc - yc*pi4a) - yc*pi4b) - yc*pi4c
			if jc > 3 {
				jc -= 4
				ssc, csc = !ssc, !csc
			}
			if jc > 1 {
				csc = !csc
			}
		}
		okc = true
	}
	if oka && okb && okc {
		// The three kernel bodies are spelled out back to back rather
		// than calling sincosKernel: the helper is over the inline
		// budget, and the interleaving win only exists when the three
		// mutually independent multiply-add chains sit in one frame
		// for the scheduler to overlap. Expression shapes are verbatim
		// from sincosKernel (itself verbatim from math.Sincos), so
		// each element's rounding sequence is untouched.
		zza := za * za
		zzb := zb * zb
		zzc := zc * zc
		cosA = 1.0 - 0.5*zza + zza*zza*((((((cosPoly[0]*zza)+cosPoly[1])*zza+cosPoly[2])*zza+cosPoly[3])*zza+cosPoly[4])*zza+cosPoly[5])
		cosB = 1.0 - 0.5*zzb + zzb*zzb*((((((cosPoly[0]*zzb)+cosPoly[1])*zzb+cosPoly[2])*zzb+cosPoly[3])*zzb+cosPoly[4])*zzb+cosPoly[5])
		cosC = 1.0 - 0.5*zzc + zzc*zzc*((((((cosPoly[0]*zzc)+cosPoly[1])*zzc+cosPoly[2])*zzc+cosPoly[3])*zzc+cosPoly[4])*zzc+cosPoly[5])
		sinA = za + za*zza*((((((sinPoly[0]*zza)+sinPoly[1])*zza+sinPoly[2])*zza+sinPoly[3])*zza+sinPoly[4])*zza+sinPoly[5])
		sinB = zb + zb*zzb*((((((sinPoly[0]*zzb)+sinPoly[1])*zzb+sinPoly[2])*zzb+sinPoly[3])*zzb+sinPoly[4])*zzb+sinPoly[5])
		sinC = zc + zc*zzc*((((((sinPoly[0]*zzc)+sinPoly[1])*zzc+sinPoly[2])*zzc+sinPoly[3])*zzc+sinPoly[4])*zzc+sinPoly[5])
		if ja == 1 || ja == 2 {
			sinA, cosA = cosA, sinA
		}
		if csa {
			cosA = -cosA
		}
		if ssa {
			sinA = -sinA
		}
		if jb == 1 || jb == 2 {
			sinB, cosB = cosB, sinB
		}
		if csb {
			cosB = -cosB
		}
		if ssb {
			sinB = -sinB
		}
		if jc == 1 || jc == 2 {
			sinC, cosC = cosC, sinC
		}
		if csc {
			cosC = -cosC
		}
		if ssc {
			sinC = -sinC
		}
		return
	}
	if oka {
		sinA, cosA = sincosKernel(za, ja, ssa, csa)
	} else {
		sinA, cosA = math.Sincos(a)
	}
	if okb {
		sinB, cosB = sincosKernel(zb, jb, ssb, csb)
	} else {
		sinB, cosB = math.Sincos(b)
	}
	if okc {
		sinC, cosC = sincosKernel(zc, jc, ssc, csc)
	} else {
		sinC, cosC = math.Sincos(c)
	}
	return
}
