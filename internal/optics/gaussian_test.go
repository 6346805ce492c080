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
	// A centered aperture takes the closed form, and the quadrature at a
	// 1 nm offset must agree with it.
	cases := []struct{ w, a float64 }{
		{MM(10), MM(12)},
		{MM(10), MM(5)},
		{MM(8), MM(12)},
		{MM(2), MM(12)},
		{MM(20), MM(12)},
	}
	for _, c := range cases {
		closed := CaptureFractionCentered(c.w, c.a)
		if got := CaptureFraction(c.w, c.a, 0); got != closed {
			t.Errorf("CaptureFraction(%v, %v, 0) = %v, closed form %v", c.w, c.a, got, closed)
		}
		almost(t, CaptureFraction(c.w, c.a, 1e-9), closed, captureTol, "capture w/a at 1 nm")
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
}

func TestAngleCouplingZeroAcceptance(t *testing.T) {
	if AngleCouplingFraction(0, 0) != 1 {
		t.Error("zero angle with zero acceptance should pass")
	}
	if AngleCouplingFraction(1e-9, 0) != 0 {
		t.Error("any angle with zero acceptance should block")
	}
}

// captureTol is the absolute error CaptureFraction's doc promises against
// the Bessel-form reference.
const captureTol = 1e-9

func checkCaptureMatchesBessel(t *testing.T, w, a, dist float64) {
	t.Helper()
	got, ref := CaptureFraction(w, a, dist), besselCapture(w, a, dist)
	if err := math.Abs(got - ref); !(err <= captureTol) {
		t.Errorf("CaptureFraction(w=%.4gmm, a=%.4gmm, d=%.4gmm) = %v, reference %v, error %.3g > %.3g",
			w*1e3, a*1e3, dist*1e3, got, ref, err, captureTol)
	}
}

// TestCaptureFractionMatchesBessel holds CaptureFraction to captureTol
// against the Bessel-form reference over every shipped design's beam
// radius at 1.2–2.5 m on that design's aperture at 0–40 mm of offset, the
// Fig 11 diameter sweep at its nominal range, a sparse grid over beam
// radii 1–20 mm, apertures 2.5–12.5 mm and offsets 0–40 mm, and the worst
// points of the 64×32 midpoint rule this kernel replaced: narrow beams far
// off-centre, which its 32 angular nodes under-resolved.
func TestCaptureFractionMatchesBessel(t *testing.T) {
	for _, c := range []LinkConfig{Collimated10G, Diverging10G, Diverging10G16mm, Diverging25G} {
		for z := 1.2; z <= 2.5001; z += 0.325 {
			w := c.Beam().RadiusAt(z)
			for dmm := 0.0; dmm <= 40; dmm += 2.5 {
				checkCaptureMatchesBessel(t, w, c.ApertureRadius, MM(dmm))
			}
		}
	}
	for dia := 6.0; dia <= 26.0001; dia += 2 {
		c := Diverging10G.WithRXDiameter(MM(dia))
		w := c.Beam().RadiusAt(c.NominalRange)
		for dmm := 0.0; dmm <= 40; dmm += 4 {
			checkCaptureMatchesBessel(t, w, c.ApertureRadius, MM(dmm))
		}
	}
	for wmm := 1.0; wmm <= 20.0001; wmm += 3.8 {
		for amm := 2.5; amm <= 12.5001; amm += 2.5 {
			for dmm := 0.0; dmm <= 40; dmm += 4 {
				checkCaptureMatchesBessel(t, MM(wmm), MM(amm), MM(dmm))
			}
		}
	}
	for _, p := range [][3]float64{
		{1, 12, 11.5}, {1, 12.5, 11.5}, {1, 12.5, 12.5}, {1.5, 12, 11},
		{2, 12.5, 12}, {2, 12.5, 12.5}, {2, 12.5, 13}, {3, 12, 13.2},
	} {
		checkCaptureMatchesBessel(t, MM(p[0]), MM(p[1]), MM(p[2]))
	}
}

// FuzzCaptureFraction checks CaptureFraction's contract on arbitrary
// float64 inputs: a NaN input gives NaN; w ≤ 0 or a ≤ 0 gives 0; an
// infinite offset or beam radius gives 0; anything else lies in [0, 1],
// is symmetric in the sign of the offset, does not grow with |offset|
// (beyond captureTol of quadrature error), and at zero offset agrees with
// CaptureFractionCentered. The seed corpus under testdata/fuzz covers a
// shipped design, a rim case, a negative offset, the degenerate shapes
// the 64×32 midpoint rule got wrong, and NaN/Inf.
func FuzzCaptureFraction(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, a, dist float64) {
		got := CaptureFraction(w, a, dist)
		d := math.Abs(dist)
		switch {
		case math.IsNaN(w) || math.IsNaN(a) || math.IsNaN(dist):
			if !math.IsNaN(got) {
				t.Fatalf("CaptureFraction(%v, %v, %v) = %v, want NaN", w, a, dist, got)
			}
			return
		case w <= 0 || a <= 0 || math.IsInf(d, 1) || math.IsInf(w, 1):
			if got != 0 {
				t.Fatalf("CaptureFraction(%v, %v, %v) = %v, want 0", w, a, dist, got)
			}
			return
		}
		if !(got >= 0 && got <= 1) {
			t.Fatalf("CaptureFraction(%v, %v, %v) = %v, outside [0, 1]", w, a, dist, got)
		}
		if mirror := CaptureFraction(w, a, -dist); mirror != got {
			t.Fatalf("CaptureFraction(%v, %v, ±%v) = %v and %v, want equal", w, a, dist, got, mirror)
		}
		for _, far := range []float64{d + w/2, 2 * d} {
			if next := CaptureFraction(w, a, far); next > got+captureTol {
				t.Fatalf("CaptureFraction(%v, %v, ·) grows from %v at %v to %v at %v", w, a, got, d, next, far)
			}
		}
		if c0, want := CaptureFraction(w, a, 0), CaptureFractionCentered(w, a); !(math.Abs(c0-want) <= 1e-12) {
			t.Fatalf("CaptureFraction(%v, %v, 0) = %v, closed form %v", w, a, c0, want)
		}
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

// TestCaptureFractionAccuracy checks the Bessel-form reference against
// the closed form for centered apertures, then holds CaptureFraction to
// captureTol at typical points over the documented ranges and at the
// degenerate shapes the 64×32 midpoint rule got wrong.
func TestCaptureFractionAccuracy(t *testing.T) {
	// The reference itself: centered, it must reproduce the closed form.
	for _, c := range [][2]float64{{10, 12}, {3, 12}, {5.25, 11}} {
		got, want := besselCapture(MM(c[0]), MM(c[1]), 0), CaptureFractionCentered(MM(c[0]), MM(c[1]))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("reference at w=%vmm a=%vmm centered = %v, closed form %v", c[0], c[1], got, want)
		}
	}
	for _, c := range [][3]float64{ // w, a, d in mm
		{5.25, 11, 0.5}, {10, 12, 0}, {8, 12, 5}, {4, 12.5, 18.5}, {20, 12.5, 20},
		{3, 12, 13.2}, {13.43, 12, 25}, {2, 12.5, 12},
	} {
		checkCaptureMatchesBessel(t, MM(c[0]), MM(c[1]), MM(c[2]))
	}
	// Shapes the 64×32 midpoint rule got wrong: it returned 0 for a
	// centered 1 nm beam and for an 8 mm beam on a 1000 m aperture, and
	// NaN for an infinite aperture and a subnormal beam radius.
	for _, c := range []struct{ w, a, d, want float64 }{
		{1e-9, MM(12), 0, 1},
		{1e-9, MM(12), MM(3), 1},
		{MM(8), 1000, MM(5), 1},
		{MM(8), math.Inf(1), MM(5), 1},
		{math.SmallestNonzeroFloat64, MM(12), 0, 1},
		{math.SmallestNonzeroFloat64, MM(12), MM(3), 1},
		{math.SmallestNonzeroFloat64, MM(12), MM(13), 0},
		{1e200, 1e200, 0, 1 - math.Exp(-2)},
	} {
		if got := CaptureFraction(c.w, c.a, c.d); !(math.Abs(got-c.want) <= captureTol) {
			t.Errorf("CaptureFraction(%v, %v, %v) = %v, want %v", c.w, c.a, c.d, got, c.want)
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
