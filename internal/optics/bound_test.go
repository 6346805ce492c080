package optics

import (
	"math"
	"testing"
)

// shippedDesigns are the link designs the catalog ships.
var shippedDesigns = []LinkConfig{Collimated10G, Diverging10G, Diverging10G16mm, Diverging25G}

// FuzzCaptureFractionEnvelope pins captureEnvelope ≥ CaptureFraction for
// every input: the bound the alignment search settles probes with must
// hold for the computed kernel, rounding included. The committed seeds
// cover the tightest point found on a grid (kernel ≈ 0.44 of the
// envelope), both integrand branches, tiny and huge apertures, the empty
// window and the non-finite inputs.
func FuzzCaptureFractionEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, a, dist float64) {
		cf, env := CaptureFraction(w, a, dist), captureEnvelope(w, a, dist)
		if cf > env {
			t.Fatalf("CaptureFraction(%v, %v, %v) = %v above captureEnvelope %v", w, a, dist, cf, env)
		}
		if math.IsNaN(env) || env < 0 {
			t.Fatalf("captureEnvelope(%v, %v, %v) = %v, want a non-negative bound", w, a, dist, env)
		}
	})
}

// TestCaptureEnvelopeBoundsKernel sweeps beam radii, apertures and
// offsets past the aperture edge in units of the beam radius, through
// both of the kernel's integrand branches and up to its empty window.
func TestCaptureEnvelopeBoundsKernel(t *testing.T) {
	worst := 0.0
	for _, w := range []float64{MM(0.5), MM(2), MM(8), MM(20)} {
		for _, aw := range []float64{1e-9, 0.05, 0.2, 0.5, 1, 1.5, 3, 10, 1e6} {
			a := aw * w
			for k := 0; k <= 520; k++ {
				d := a + float64(k)*w/100
				if k == 0 {
					d = math.Nextafter(a, math.Inf(1))
				}
				cf, env := CaptureFraction(w, a, d), captureEnvelope(w, a, d)
				if !(cf <= env) {
					t.Fatalf("CaptureFraction(%v, %v, %v) = %v above captureEnvelope %v", w, a, d, cf, env)
				}
				if env > 0 {
					worst = max(worst, cf/env)
				}
			}
		}
	}
	if worst < 0.4 {
		t.Errorf("kernel reaches at most %.3f of the envelope; the grid lost its tight points", worst)
	}
	if captureEnvelope(MM(8), MM(12), MM(12)) != 1 || captureEnvelope(MM(8), MM(12), MM(3)) != 1 {
		t.Error("captureEnvelope bounds an aperture over the beam axis by less than 1")
	}
}

// TestCaptureEnvelopePremises pins what the envelope's proof (DESIGN §8)
// reads off the kernel: positive weights summing to 2 within 1e-14,
// nodes inside ±0.99877102, and no asymptotic series above its x = 20
// value.
func TestCaptureEnvelopePremises(t *testing.T) {
	var sum float64
	for i, w := range &captureWeights {
		if !(w > 0) || math.Abs(captureNodes[i]) > 0.99877102 {
			t.Fatalf("node %d: weight %v at %v", i, w, captureNodes[i])
		}
		sum += w
	}
	if math.Abs(sum-2) > 1e-14 {
		t.Errorf("weights sum to 2%+g", sum-2)
	}
	for x := 20.0; x < 1e6; x *= 1.01 {
		if s := asymptoticI0eSeries(x); math.Sqrt(2/math.Pi)*s > captureAsymPeak {
			t.Fatalf("asymptotic series %v at x = %v exceeds its x = 20 bound", s, x)
		}
	}
}

// TestReceivedPowerAtMostSound holds the certified bound to its contract
// on every shipped design over a grid of misalignments and attenuations:
// it never calls a read at most a floor just below the exact read.
func TestReceivedPowerAtMostSound(t *testing.T) {
	for _, c := range shippedDesigns {
		settled := 0
		for _, atten := range []float64{0, 12.5, -3, 1e20} {
			for _, r := range []float64{0, 1.2, 1.75, 2.6} {
				for lat := 0.0; lat <= MM(60); lat += MM(0.75) {
					for _, ang := range []float64{0, Mrad(0.5), Mrad(2), Mrad(6), Mrad(20)} {
						m := Misalignment{Range: r, LateralOffset: lat, IncidenceMismatch: ang}
						exact := c.ReceivedPowerDBm(m) - atten
						if exact > math.Inf(-1) && c.ReceivedPowerAtMost(m, atten, math.Nextafter(exact, math.Inf(-1))) {
							t.Fatalf("%s: ReceivedPowerAtMost(%+v, %v) settles below the exact read %v", c.Name, m, atten, exact)
						}
						if c.ReceivedPowerAtMost(m, atten, exact+20) {
							settled++
						}
					}
				}
			}
		}
		if settled == 0 {
			t.Errorf("%s: no read settled 20 dB above its exact power", c.Name)
		}
	}
}

// TestReceivedPowerAtMostTight checks that each tier replaces only the
// capture loss: on the beam axis the first tier settles a read just above
// the exact power plus the centered capture loss, whatever the angle and
// walk-off losses; three beam radii past the aperture edge, the envelope
// settles a read 30 dB above the exact power that the first tier cannot.
func TestReceivedPowerAtMostTight(t *testing.T) {
	for _, c := range shippedDesigns {
		for _, ang := range []float64{0, Mrad(2), Mrad(6)} {
			m := Misalignment{Range: c.NominalRange, IncidenceMismatch: ang}
			geoLoss := FractionToDB(CaptureFractionCentered(c.beamRadius(m), c.ApertureRadius))
			if exact := c.ReceivedPowerDBm(m); !c.ReceivedPowerAtMost(m, 0, exact+geoLoss+1e-9) {
				t.Errorf("%s: a centered read at %v rad does not settle at its exact power %v plus the %v dB capture loss", c.Name, ang, exact, geoLoss)
			}
		}
		w := c.beamRadius(Misalignment{})
		m := Misalignment{Range: c.NominalRange, LateralOffset: c.ApertureRadius + 3*w, IncidenceMismatch: Mrad(1)}
		floor := c.ReceivedPowerDBm(m) + 30
		if c.budgetDBm(0, m) <= floor || !c.ReceivedPowerAtMost(m, 0, floor) {
			t.Errorf("%s: a read 3w past the aperture edge is not settled by the envelope at %v dBm", c.Name, floor)
		}
	}
}

// TestReceivedPowerAtMostZeroAllocs pins the //cyclops:hotpath contract.
func TestReceivedPowerAtMostZeroAllocs(t *testing.T) {
	c := Diverging10G16mm
	m := Misalignment{Range: 1.8, LateralOffset: MM(30), IncidenceMismatch: Mrad(2)}
	if n := testing.AllocsPerRun(100, func() { c.ReceivedPowerAtMost(m, 0, -20) }); n != 0 {
		t.Fatalf("ReceivedPowerAtMost allocates %v per call, want 0", n)
	}
}
