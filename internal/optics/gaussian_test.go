package optics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBeamRadius(t *testing.T) {
	b := GaussianBeam{W0: MM(2), Divergence: Mrad(4)}
	almost(t, b.RadiusAt(0), MM(2), 1e-12, "radius at 0")
	almost(t, b.RadiusAt(1.75), MM(2)+0.004*1.75, 1e-12, "radius at 1.75m")
	almost(t, b.DiameterAt(1.75), 2*(MM(2)+0.004*1.75), 1e-12, "diameter")
	// Negative z is symmetric.
	almost(t, b.RadiusAt(-1), b.RadiusAt(1), 1e-15, "symmetry")
}

func TestDivergenceFor(t *testing.T) {
	// 2 mm launch radius → 20 mm diameter at 1.75 m needs (10-2)/1750 rad.
	got := DivergenceFor(MM(2), MM(20), 1.75)
	almost(t, got, 0.008/1.75, 1e-12, "divergence")
	// Target smaller than launch clamps to collimated.
	if got := DivergenceFor(MM(10), MM(10), 1.75); got != 0 {
		t.Errorf("shrinking beam divergence = %v, want 0", got)
	}
}

func TestCaptureCenteredClosedForm(t *testing.T) {
	// Quadrature must agree with the closed form for centered apertures.
	cases := []struct{ w, a float64 }{
		{MM(10), MM(12)},
		{MM(10), MM(5)},
		{MM(8), MM(12)},
		{MM(2), MM(12)},
		{MM(20), MM(12)},
	}
	for _, c := range cases {
		num := CaptureFraction(c.w, c.a, 0)
		closed := CaptureFractionCentered(c.w, c.a)
		almost(t, num, closed, 2e-4, "capture w/a centered")
	}
}

func TestCaptureMonotoneInOffset(t *testing.T) {
	w, a := MM(10), MM(12)
	prev := math.Inf(1)
	for d := 0.0; d <= 0.04; d += 0.002 {
		f := CaptureFraction(w, a, d)
		if f > prev+1e-9 {
			t.Fatalf("capture increased with offset at d=%v", d)
		}
		prev = f
	}
}

func TestCaptureBounds(t *testing.T) {
	f := func(wmm, amm, dmm float64) bool {
		w, a, d := MM(math.Abs(wmm))+1e-4, MM(math.Abs(amm))+1e-4, MM(math.Abs(dmm))
		c := CaptureFraction(w, a, d)
		return c >= 0 && c <= 1
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(9)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.Float64() * 40)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCaptureDegenerateInputs(t *testing.T) {
	if CaptureFraction(0, MM(12), 0) != 0 {
		t.Error("zero beam radius should capture nothing")
	}
	if CaptureFraction(MM(10), 0, 0) != 0 {
		t.Error("zero aperture should capture nothing")
	}
	if CaptureFractionCentered(0, 1) != 0 || CaptureFractionCentered(1, 0) != 0 {
		t.Error("closed form degenerate inputs")
	}
}

func TestCaptureTinyBeamFullyCaptured(t *testing.T) {
	// A beam much narrower than the aperture is fully captured when
	// centered.
	got := CaptureFraction(MM(1), MM(12), 0)
	if got < 0.999 {
		t.Errorf("narrow beam capture = %v", got)
	}
	// And lost when offset beyond the aperture edge.
	got = CaptureFraction(MM(1), MM(12), MM(20))
	if got > 1e-6 {
		t.Errorf("far-offset narrow beam capture = %v", got)
	}
}

func TestCaptureFarFieldGaussianRatio(t *testing.T) {
	// For an aperture much smaller than the beam, the offset response is
	// the Gaussian intensity ratio exp(-2d²/w²).
	w, a := MM(50), MM(2)
	base := CaptureFraction(w, a, 0)
	for _, dmm := range []float64{10, 20, 30} {
		d := MM(dmm)
		want := base * math.Exp(-2*d*d/(w*w))
		got := CaptureFraction(w, a, d)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("small-aperture ratio at d=%vmm: got %v want %v", dmm, got, want)
		}
	}
}

func TestAngleCoupling(t *testing.T) {
	acc := Mrad(4)
	almost(t, AngleCouplingFraction(0, acc), 1, 1e-12, "aligned")
	almost(t, AngleCouplingFraction(acc, acc), math.Exp(-2), 1e-12, "at acceptance")
	// Symmetric in angle sign.
	almost(t, AngleCouplingFraction(-Mrad(2), acc), AngleCouplingFraction(Mrad(2), acc), 1e-15, "symmetry")
	// Loss form agrees.
	almost(t, AngleCouplingLossDB(acc, acc), -10*math.Log10(math.Exp(-2)), 1e-9, "loss dB")
}

func TestAngleCouplingZeroAcceptance(t *testing.T) {
	if AngleCouplingFraction(0, 0) != 1 {
		t.Error("zero angle with zero acceptance should pass")
	}
	if AngleCouplingFraction(1e-9, 0) != 0 {
		t.Error("any angle with zero acceptance should block")
	}
}

// captureFractionReference is CaptureFraction as it stood before the
// angular nodes moved into the captureCos/captureSin tables, kept word for
// word: it evaluates math.Cos and math.Sin at every node of every call.
// Every received-power golden in the repository was rendered through it,
// so the table kernel must reproduce it bit for bit.
func captureFractionReference(w, a, dist float64) float64 {
	if w <= 0 || a <= 0 {
		return 0
	}
	const nr, nt = 64, 32
	inv2w2 := 2 / (w * w)
	norm := 2 / (math.Pi * w * w)
	var sum float64
	dr := a / nr
	dt := 2 * math.Pi / nt
	for i := 0; i < nr; i++ {
		r := (float64(i) + 0.5) * dr
		for j := 0; j < nt; j++ {
			t := (float64(j) + 0.5) * dt
			// Point in the aperture, measured from the beam axis.
			x := dist + r*math.Cos(t)
			y := r * math.Sin(t)
			sum += math.Exp(-(x*x+y*y)*inv2w2) * r
		}
	}
	frac := norm * sum * dr * dt
	if frac > 1 {
		frac = 1
	}
	return frac
}

// sameBits reports whether two results are the same float64 bit for bit,
// with NaN equal only to NaN (of any payload).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkCaptureMatchesReference(t *testing.T, w, a, dist float64) {
	t.Helper()
	got, want := CaptureFraction(w, a, dist), captureFractionReference(w, a, dist)
	if !sameBits(got, want) {
		t.Fatalf("CaptureFraction(%v, %v, %v) = %v (%#016x), reference %v (%#016x)",
			w, a, dist, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestCaptureFractionMatchesReference pins the table kernel to the
// per-call trig kernel bit for bit: over every shipped design's beam
// radius at 1.2–2.5 m (and the Fig 11 diameter sweep at its nominal
// range) on that design's aperture at 0–40 mm of offset, and over the
// degenerate and non-finite inputs.
func TestCaptureFractionMatchesReference(t *testing.T) {
	for _, c := range []LinkConfig{Collimated10G, Diverging10G, Diverging10G16mm, Diverging25G} {
		for z := 1.2; z <= 2.5001; z += 0.1 {
			w := c.Beam().RadiusAt(z)
			for dmm := 0.0; dmm <= 40; dmm += 0.5 {
				checkCaptureMatchesReference(t, w, c.ApertureRadius, MM(dmm))
			}
		}
	}
	for dia := 6.0; dia <= 26.0001; dia++ {
		c := Diverging10G.WithRXDiameter(MM(dia))
		w := c.Beam().RadiusAt(c.NominalRange)
		for dmm := 0.0; dmm <= 40; dmm += 1 {
			checkCaptureMatchesReference(t, w, c.ApertureRadius, MM(dmm))
		}
	}

	// Deep-tail beams: a beam so narrow that only the innermost ring
	// contributes, at exp(-100) or exp(-400), so a one-ulp change in any
	// node's cos or sin is magnified a hundredfold by Exp and reaches the
	// result. The near-zero cos and sin entries only show through
	// rounding of r·cos t at a given ring radius, so the aperture (and
	// with it the ring radius) is swept finely. Over this family, every
	// one of the 128 single-ulp table mutations changes some result.
	for amm := 2.5; amm <= 12.5; amm += 0.05 {
		a := MM(amm)
		r0 := a / 128
		for _, e := range []float64{100, 400} {
			w := r0 * math.Sqrt(2/e)
			checkCaptureMatchesReference(t, w, a, 0)
			checkCaptureMatchesReference(t, w, a, r0/2)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	w, a := MM(8), MM(12)
	edges := [][3]float64{
		// w ≤ 0 and a ≤ 0 short-circuit to 0.
		{0, a, 0}, {math.Copysign(0, -1), a, 0}, {-w, a, MM(3)},
		{w, 0, 0}, {w, -a, MM(3)}, {0, 0, 0}, {-inf, a, 0}, {w, -inf, 0},
		// Negative offsets mirror positive ones only up to rounding.
		{w, a, -MM(3)}, {w, a, -MM(17.25)}, {w, a, -1e-12},
		// Every term underflows to 0.
		{MM(1), a, 1}, {MM(8), a, 1e3}, {w, a, math.MaxFloat64},
		// Extreme but finite shapes.
		{1e-9, a, 0}, {1e3, a, MM(5)}, {w, 1e3, MM(5)}, {math.SmallestNonzeroFloat64, a, 0},
		{w, math.SmallestNonzeroFloat64, 0}, {math.MaxFloat64, a, 0},
		// Non-finite inputs.
		{nan, a, 0}, {w, nan, 0}, {w, a, nan}, {nan, nan, nan},
		{inf, a, 0}, {w, inf, 0}, {w, a, inf}, {w, a, -inf}, {inf, inf, inf},
	}
	for _, e := range edges {
		checkCaptureMatchesReference(t, e[0], e[1], e[2])
	}
}

// FuzzCaptureFractionMatchesReference extends the bit-identity pin to
// arbitrary float64 inputs; the seed corpus under testdata/fuzz covers the
// shipped designs, an off-axis rim case, a negative offset and NaN/Inf.
func FuzzCaptureFractionMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, a, dist float64) {
		checkCaptureMatchesReference(t, w, a, dist)
	})
}

// besselCapture is an independent reference for CaptureFraction: the
// angular integral of the offset Gaussian over a circle of radius r about
// the aperture center is exact, 2π·exp(-2(r²+d²)/w²)·I₀(4rd/w²), which
// leaves a smooth one-dimensional radial integral. It is taken by the
// midpoint rule at 4000 and 8000 nodes with one Richardson step, which
// cancels the rule's h² error term.
func besselCapture(w, a, dist float64) float64 {
	mid := func(n int) float64 {
		h := a / float64(n)
		k := 4 / (w * w)
		var sum float64
		for i := 0; i < n; i++ {
			r := (float64(i) + 0.5) * h
			e := r - dist
			sum += k * r * math.Exp(-2*e*e/(w*w)) * besselI0e(k*r*dist)
		}
		return sum * h
	}
	return (4*mid(8000) - mid(4000)) / 3
}

// besselI0e is the exponentially scaled modified Bessel function
// exp(-x)·I₀(x) for x ≥ 0: its power series Σ((x/2)^k/k!)² below x = 500,
// its asymptotic series above.
func besselI0e(x float64) float64 {
	if x > 500 {
		term, sum := 1.0, 1.0
		for k := 1; k < 6; k++ {
			term *= float64((2*k-1)*(2*k-1)) / (8 * float64(k) * x)
			sum += term
		}
		return sum / math.Sqrt(2*math.Pi*x)
	}
	q := x * x / 4
	term, sum := 1.0, 1.0
	for k := 1; term > sum*1e-17; k++ {
		term *= q / float64(k*k)
		sum += term
	}
	return sum * math.Exp(-x)
}

// TestCaptureFractionAccuracy pins the error bounds CaptureFraction's doc
// states against the Bessel-form reference, at the worst point found on a
// grid over each documented range (0.25 mm steps, and 0.1 mm for the
// shipped beams) and at a few typical ones, plus the known weakness: a
// beam much narrower than the aperture far off-centre, which 32 angular
// nodes under-resolve.
func TestCaptureFractionAccuracy(t *testing.T) {
	// The reference itself: centered, it must reproduce the closed form.
	for _, c := range [][2]float64{{10, 12}, {3, 12}, {5.25, 11}} {
		got, want := besselCapture(MM(c[0]), MM(c[1]), 0), CaptureFractionCentered(MM(c[0]), MM(c[1]))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("reference at w=%vmm a=%vmm centered = %v, closed form %v", c[0], c[1], got, want)
		}
	}
	cases := []struct {
		w, a, d float64 // mm
		tol     float64 // absolute
	}{
		// Beam radii 4–20 mm, apertures 2.5–12.5 mm, offsets ≤ 20 mm:
		// the worst case is the midpoint rule's radial error on a beam a
		// little narrower than half the aperture.
		{5.25, 11, 0.5, 1.8e-4},
		{10, 12, 0, 1.8e-4},
		{8, 12, 5, 1.8e-4},
		{4, 12.5, 18.5, 1.8e-4},
		{20, 12.5, 20, 1.8e-4},
		// The 3–14 mm beams of the shipped designs and the Fig 11 sweep on
		// their 12 mm aperture, offsets ≤ 40 mm.
		{3, 12, 13.2, 3.5e-4},
		{13.43, 12, 25, 3.5e-4},
		// A 2 mm beam at the rim of a 12.5 mm aperture.
		{2, 12.5, 12, 3.4e-2},
	}
	for _, c := range cases {
		got := CaptureFraction(MM(c.w), MM(c.a), MM(c.d))
		ref := besselCapture(MM(c.w), MM(c.a), MM(c.d))
		if err := math.Abs(got - ref); err > c.tol {
			t.Errorf("w=%vmm a=%vmm d=%vmm: CaptureFraction %v, reference %v, error %.3g > %.3g",
				c.w, c.a, c.d, got, ref, err, c.tol)
		}
	}
}

// TestCaptureFractionZeroAllocs pins the //cyclops:hotpath contract.
func TestCaptureFractionZeroAllocs(t *testing.T) {
	w, a := Diverging10G16mm.Beam().RadiusAt(1.75), Diverging10G16mm.ApertureRadius
	if n := testing.AllocsPerRun(100, func() {
		CaptureFraction(w, a, MM(4))
	}); n != 0 {
		t.Fatalf("CaptureFraction allocates %v per call, want 0", n)
	}
}

var benchSink float64

func BenchmarkCaptureFraction(b *testing.B) {
	w, a := Diverging10G16mm.Beam().RadiusAt(1.75), Diverging10G16mm.ApertureRadius
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = CaptureFraction(w, a, MM(4))
	}
}

// BenchmarkLinkReceivedPowerDBm is one radiometry read of the chosen 10G
// design: CaptureFraction plus the angle, walk-off and budget terms.
func BenchmarkLinkReceivedPowerDBm(b *testing.B) {
	c := Diverging10G16mm
	m := Misalignment{Range: 1.8, LateralOffset: MM(4), IncidenceMismatch: Mrad(2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = c.ReceivedPowerDBm(m)
	}
}
