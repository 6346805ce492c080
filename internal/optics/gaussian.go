package optics

import "math"

// GaussianBeam describes a TEM00 beam by its 1/e² intensity radius at the
// waist (assumed at the transmitter aperture for our short links) and its
// far-field divergence half-angle. Over the 1.5–2 m spans Cyclops cares
// about, the radius evolves essentially linearly:
//
//	w(z) ≈ W0 + Divergence·z
//
// which is exact in the geometric (large divergence) limit the adjustable
// collimator operates in, and within a percent of the true hyperbolic
// profile for the collimated option at these ranges.
type GaussianBeam struct {
	W0         float64 // 1/e² radius at the transmitter, meters
	Divergence float64 // half-angle, radians (0 for an ideal collimated beam)
}

// RadiusAt returns the 1/e² intensity radius at distance z.
func (b GaussianBeam) RadiusAt(z float64) float64 {
	return b.W0 + b.Divergence*math.Abs(z)
}

// DivergenceFor returns the divergence half-angle needed for the beam to
// reach 1/e² diameter d at distance z, clamped at ≥ 0 (a target diameter
// smaller than the launch diameter yields a collimated beam).
func DivergenceFor(w0, d, z float64) float64 {
	div := (d/2 - w0) / z
	if div < 0 {
		div = 0
	}
	return div
}

// captureGLN is the order of CaptureFraction's Gauss–Legendre rule,
// captureWindow the half-width of its radial window in units of the beam
// radius w (the Gaussian factor exp(-2u²) of the radial integrand is below
// exp(-32) ≈ 1.3e-14 outside |u| ≤ 4), and captureAsymFrom the Bessel
// argument from which the kernel takes I₀e's asymptotic series.
const (
	captureGLN      = 48
	captureWindow   = 4
	captureAsymFrom = 20
)

// captureNodes and captureWeights are the 48-point Gauss–Legendre nodes
// and weights on [-1, 1].
var captureNodes, captureWeights = gaussLegendre()

// gaussLegendre builds the captureGLN-point Gauss–Legendre rule by Newton
// iteration on the three-term Legendre recurrence, from the standard
// initial guesses cos(π(i+¾)/(n+½)); each root converges in a handful of
// steps. Nodes are mirrored exactly about 0 and share their weight.
func gaussLegendre() (x, wt [captureGLN]float64) {
	const n = captureGLN
	for i := 0; i < n/2; i++ {
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (n + 0.5))
		var dp float64
		for range 100 {
			p0, p1 := 1.0, z
			for j := 2; j <= n; j++ {
				p0, p1 = p1, (float64(2*j-1)*z*p1-float64(j-1)*p0)/float64(j)
			}
			dp = n * (z*p1 - p0) / (z*z - 1)
			step := p1 / dp
			z -= step
			if math.Abs(step) < 1e-16 {
				break
			}
		}
		x[i], x[n-1-i] = -z, z
		wt[i] = 2 / ((1 - z*z) * dp * dp)
		wt[n-1-i] = wt[i]
	}
	return x, wt
}

// CaptureFraction returns the fraction of total beam power falling inside
// a circular aperture of radius a whose center is offset by dist from the
// beam axis, for a beam with 1/e² radius w at the aperture plane.
//
// The intensity profile is I(r) = (2/(πw²))·exp(-2r²/w²) (unit total
// power). Around the aperture center, the angular integral over a circle
// of radius r is exact, 2π·exp(-2(r²+d²)/w²)·I₀(4rd/w²), which leaves the
// smooth radial integral
//
//	∫ k·r·exp(-2(r-d)²/w²)·I₀e(k·r·d) dr,  k = 4/w²,  I₀e(x) = e^(-x)·I₀(x)
//
// over [max(0, |d|-4w), min(a, |d|+4w)], outside which the integrand is
// below exp(-32) of its peak. A fixed 48-point Gauss–Legendre rule takes
// it. The kernel works in units of w, so no beam or aperture size
// overflows k. I₀ is its power series below x = 20, folded into one Exp of
// -2(r²+d²)/w², and I₀e its asymptotic series above. A centered aperture
// returns CaptureFractionCentered exactly. Against a Bessel-form reference
// taken at 8000 midpoint nodes, the worst absolute error over beam radii
// 1–20 mm, apertures 2.5–12.5 mm and offsets 0.5–40 mm (0.5 mm steps) is
// 4.2e-13; TestCaptureFractionMatchesBessel pins 1e-9 on a sparse grid
// over those ranges and on every shipped design.
//
// Degenerate and non-finite inputs, in order of precedence: any NaN
// input gives NaN; w ≤ 0 or a ≤ 0 gives 0; |dist| = +Inf or w = +Inf
// gives 0; every other input gives a result in [0, 1]. FuzzCaptureFraction
// pins the contract.
//
//cyclops:hotpath one call per exact received-power read: core.Run's sample ticks, the tick verdicts and alignment-search probes no bound settles; zero-alloc contract pinned by TestCaptureFractionZeroAllocs and make alloc-check
func CaptureFraction(w, a, dist float64) float64 {
	d := math.Abs(dist)
	switch {
	case math.IsNaN(w) || math.IsNaN(a) || math.IsNaN(d):
		return math.NaN()
	case w <= 0 || a <= 0 || math.IsInf(d, 1) || math.IsInf(w, 1):
		return 0
	case d == 0:
		return CaptureFractionCentered(w, a)
	}
	// In units of w the window is u = (r-d)/w ∈ [lo, hi] and the
	// integrand is 4s·exp(-2u²)·I₀e(4δs) with δ = d/w and s = r/w = δ+u.
	// (a-d)/w is formed directly, so δ and a/w may both overflow.
	delta := d / w
	lo := math.Max(-delta, -captureWindow)
	hi := math.Min((a-d)/w, captureWindow)
	if !(hi > lo) {
		return 0
	}
	mid, half := (hi+lo)/2, (hi-lo)/2
	var sum float64
	for i, t := range &captureNodes {
		u := mid + half*t
		s := delta + u
		x := 4 * delta * s
		var f float64
		if x < captureAsymFrom {
			// 4s·exp(-2(s²+δ²))·I₀(x) = 4s·exp(-2u²)·I₀e(x).
			q := x * x / 4
			term, series := 1.0, 1.0
			for k := 1; term > series*1e-17; k++ {
				term *= q / float64(k*k)
				series += term
			}
			f = 4 * s * math.Exp(-2*(s*s+delta*delta)) * series
		} else {
			// I₀e(x) ≈ Σ/sqrt(2πx), so 4s·I₀e(x) = sqrt(2s/(πδ))·Σ, and
			// s/δ = 1+u/δ stays finite when δ overflows.
			f = math.Exp(-2*u*u) * math.Sqrt(2/math.Pi*(1+u/delta)) * asymptoticI0eSeries(x)
		}
		sum += captureWeights[i] * f
	}
	return min(max(half*sum, 0), 1)
}

// asymptoticI0eSeries is Σ of I₀e(x) ≈ Σ/sqrt(2πx) for x ≥ 20. The
// terms turn to grow near k = 2x; at x = 20 they are below 1e-17 by
// k = 27, so the cap only bounds the loop. Every term falls as x grows, so
// no x ≥ 20 yields more than asymptoticI0eSeries(20) after rounding.
func asymptoticI0eSeries(x float64) float64 {
	term, series := 1.0, 1.0
	for k := 1; k < 32 && term > 1e-17; k++ {
		term *= float64((2*k-1)*(2*k-1)) / (8 * float64(k) * x)
		series += term
	}
	return series
}

// captureEnvelope returns an upper bound on CaptureFraction(w, a, d) for
// every beam radius w in [wLo, wHi] and every offset |d| ≥ |dist| > a, an
// aperture clear of the beam axis, with 0 < wLo ≤ wHi and wHi, a and dist
// finite; elsewhere it returns 1. At wLo = wHi it bounds the one read.
// Every such kernel forms its window [lo, hi] at or below hi(wHi, |dist|)
// < 0, so each node has exp(−2u²) ≤ exp(−2hi²)·exp(−4|hi|(hi − u)); its
// radial factor 4s·I₀e(4δs) is at most 4a/wLo and 20/δ below x = 20 and
// sqrt(2/π)·Σ(20) above. The rule's sum is then at most that factor times
// exp(−2hi²) times the smaller of the window length and 1/(4|hi|), the
// Gauss–Legendre sum of exp(−4|hi|(hi − u)) being at most its integral.
// captureEnvSlack absorbs the kernel's rounding (DESIGN §8).
// FuzzCaptureFractionEnvelope and FuzzReceivedPowerAtMostWithin pin
// envelope ≥ kernel.
func captureEnvelope(wLo, wHi, a, dist float64) float64 {
	d := math.Abs(dist)
	if !(wLo > 0 && wLo <= wHi && a > 0 && d > a) || math.IsInf(wHi, 1) || math.IsInf(d, 1) {
		return 1
	}
	// hi is formed as CaptureFraction forms it, at the box corner that
	// makes it largest; hi < 0 here.
	hi := (a - d) / wHi
	if !(hi > -captureWindow) {
		return 0 // every kernel in the box has an empty window
	}
	// span bounds every kernel's window length hi − lo: a/w up to its
	// rounding, and hi + captureWindow since lo ≥ −captureWindow.
	span := min(a/wLo+captureSpanSlack, hi+captureWindow)
	// Below x = 4δs = 20, 4s is below both 4a/w and 20/δ.
	peak := max(min(4*a/wLo, captureAsymFrom/(d/wHi))+1e-12, captureAsymPeak)
	return peak * math.Exp(-2*hi*hi) * min(span, 1/(-4*hi)) * captureEnvSlack
}

// captureAsymPeak bounds the kernel's x ≥ 20 integrand factor
// sqrt(2/π·(1+u/δ))·Σ, with u ≤ 0; captureSpanSlack is the absolute
// allowance for the rounding of the kernel's window length against a/w,
// below 1e-14; and captureEnvSlack is the relative allowance for the
// kernel's rounding, orders of magnitude above the ≈1e-12 the proof in
// DESIGN §8 needs.
var captureAsymPeak = math.Sqrt(2/math.Pi) * asymptoticI0eSeries(captureAsymFrom)

const (
	captureSpanSlack = 1e-13
	captureEnvSlack  = 1 + 1e-9
)

// captureDisk returns a lower bound on CaptureFraction(w, a, dist) for an
// aperture over the beam axis, |dist| < a, with w and a positive; elsewhere
// it returns 0. The disk of radius a − |dist| centred on the beam axis lies
// inside the aperture and holds 1 − exp(−2((a−|dist|)/w)²) of the beam, one
// Exp; captureDiskSlack covers the kernel's quadrature, window and rounding
// error (DESIGN §8). FuzzReceivedPowerAtLeast pins disk ≤ kernel.
func captureDisk(w, a, dist float64) float64 {
	d := math.Abs(dist)
	if !(w > 0 && a > 0 && d < a) {
		return 0
	}
	r := (a - d) / w
	if v := -math.Expm1(-2*r*r) - captureDiskSlack; v > 0 {
		return v
	}
	return 0 // a disk too small to clear the slack, or w = a = +Inf
}

// captureDiskSlack is the absolute allowance captureDisk subtracts for the
// computed kernel's error against the exact integral: ten times the 1e-9
// TestCaptureFractionMatchesBessel pins and 2e4 times the worst error
// measured (DESIGN §8).
const captureDiskSlack = 1e-8

// CaptureFractionCentered is the closed form of CaptureFraction for a
// centered aperture: 1 - exp(-2a²/w²). CaptureFraction returns it for a
// zero offset.
func CaptureFractionCentered(w, a float64) float64 {
	if w <= 0 || a <= 0 {
		return 0
	}
	e := -2 * a * a / (w * w)
	if math.IsNaN(e) {
		// a² and w² both overflowed (or an input is NaN, which the
		// ratio keeps): form the ratio first.
		r := a / w
		e = -2 * r * r
	}
	return 1 - math.Exp(e)
}

// AngleCouplingFraction returns the fiber-coupling efficiency for an
// incidence-angle mismatch theta given the terminal's angular acceptance
// (the 1/e² half-angle of the coupling response):
//
//	η(θ) = exp(-2·(θ/acceptance)²)
//
// This Gaussian angular response is the standard single-mode/multimode
// overlap model; the acceptance constant is a property of the collimator
// and fiber and is calibrated per part in the catalog.
func AngleCouplingFraction(theta, acceptance float64) float64 {
	if acceptance <= 0 {
		if theta == 0 {
			return 1
		}
		return 0
	}
	r := theta / acceptance
	return math.Exp(-2 * r * r)
}
