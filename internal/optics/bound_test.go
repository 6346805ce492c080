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
			r := c.read(m)
			geoLoss := FractionToDB(CaptureFractionCentered(r.w, c.ApertureRadius))
			if exact := c.ReceivedPowerDBm(m); !c.ReceivedPowerAtMost(m, 0, exact+geoLoss+1e-9) {
				t.Errorf("%s: a centered read at %v rad does not settle at its exact power %v plus the %v dB capture loss", c.Name, ang, exact, geoLoss)
			}
		}
		w := c.read(Misalignment{}).w
		m := Misalignment{Range: c.NominalRange, LateralOffset: c.ApertureRadius + 3*w, IncidenceMismatch: Mrad(1)}
		floor := c.ReceivedPowerDBm(m) + 30
		if r := c.read(m); r.dBm(0) <= floor || !c.ReceivedPowerAtMost(m, 0, floor) {
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

// FuzzReceivedPowerAtLeast pins captureDisk ≤ CaptureFraction for every
// input, the premise of the certified "light" bound, and holds the bound
// and the verdict to the exact read on a collimated design of that beam
// radius and aperture: ReceivedPowerAtLeast never settles a floor one ulp
// above the exact power, and ReceivedPowerReaches answers exactly as the
// comparison would. The committed seeds cover the centred aperture, an
// offset one step off the axis, offsets at and just inside the aperture
// edge, the window boundary, the asymptotic branch, a disk too small to
// clear the slack, huge and subnormal sizes and the non-finite inputs.
func FuzzReceivedPowerAtLeast(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, a, dist float64) {
		cf, disk := CaptureFraction(w, a, dist), captureDisk(w, a, dist)
		if math.IsNaN(cf) {
			if disk != 0 {
				t.Fatalf("captureDisk(%v, %v, %v) = %v for a NaN kernel, want 0", w, a, dist, disk)
			}
		} else if !(disk >= 0 && disk <= cf) {
			t.Fatalf("captureDisk(%v, %v, %v) = %v, kernel %v", w, a, dist, disk, cf)
		}
		c := Collimated10G
		c.LaunchRadius, c.ApertureRadius = w, a
		m := Misalignment{Range: c.NominalRange, LateralOffset: dist}
		exact := c.ReceivedPowerDBm(m)
		if !math.IsNaN(exact) && exact < math.Inf(1) && c.ReceivedPowerAtLeast(m, 0, math.Nextafter(exact, math.Inf(1))) {
			t.Fatalf("ReceivedPowerAtLeast(w %v, a %v, d %v) settles above the exact read %v", w, a, dist, exact)
		}
		for _, floor := range []float64{exact, math.Nextafter(exact, math.Inf(1)), math.Nextafter(exact, math.Inf(-1)), exact - 3, c.Transceiver.SensitivityDBm} {
			if got := c.ReceivedPowerReaches(m, 0, floor); got != (exact >= floor) {
				t.Fatalf("ReceivedPowerReaches(w %v, a %v, d %v, floor %v) = %v, exact read %v", w, a, dist, floor, got, exact)
			}
		}
	})
}

// TestReceivedPowerAtLeastSound holds the certified lower bound to its
// contract on every shipped design over a grid of misalignments and
// attenuations: it never calls a read at least a floor one ulp above the
// exact read, and ReceivedPowerReaches agrees with the exact comparison at
// the exact read, one ulp either side of it and at the sensitivity.
func TestReceivedPowerAtLeastSound(t *testing.T) {
	for _, c := range shippedDesigns {
		settled := 0
		for _, atten := range []float64{0, 12.5, -3, 1e20} {
			for _, r := range []float64{0, 1.2, 1.75, 2.6} {
				for lat := 0.0; lat <= MM(30); lat += MM(0.25) {
					for _, ang := range []float64{0, Mrad(0.5), Mrad(2), Mrad(6), Mrad(20)} {
						m := Misalignment{Range: r, LateralOffset: lat, IncidenceMismatch: ang}
						exact := c.ReceivedPowerDBm(m) - atten
						if c.ReceivedPowerAtLeast(m, atten, math.Nextafter(exact, math.Inf(1))) {
							t.Fatalf("%s: ReceivedPowerAtLeast(%+v, %v) settles above the exact read %v", c.Name, m, atten, exact)
						}
						if c.ReceivedPowerAtLeast(m, atten, exact-20) {
							settled++
						}
						for _, floor := range []float64{exact, math.Nextafter(exact, math.Inf(1)), math.Nextafter(exact, math.Inf(-1)), c.Transceiver.SensitivityDBm} {
							if got := c.ReceivedPowerReaches(m, atten, floor); got != (exact >= floor) {
								t.Fatalf("%s: ReceivedPowerReaches(%+v, %v, %v) = %v, exact read %v", c.Name, m, atten, floor, got, exact)
							}
						}
					}
				}
			}
		}
		if settled == 0 {
			t.Errorf("%s: no read settled 20 dB below its exact power", c.Name)
		}
	}
}

// TestReceivedPowerAtLeastTight checks that the bound replaces only the
// capture loss and costs next to nothing near the axis: a centred read
// settles 1e-6 dB below its exact power whatever the angle and walk-off
// losses, and a well-aligned read of the chosen 10G design (1 mm off the
// axis, 1 mrad off the angle) settles at the SFP sensitivity and within
// 0.1 dB of its exact power.
func TestReceivedPowerAtLeastTight(t *testing.T) {
	for _, c := range shippedDesigns {
		for _, ang := range []float64{0, Mrad(2), Mrad(6)} {
			m := Misalignment{Range: c.NominalRange, IncidenceMismatch: ang}
			if exact := c.ReceivedPowerDBm(m); !c.ReceivedPowerAtLeast(m, 0, exact-1e-6) {
				t.Errorf("%s: a centred read at %v rad does not settle 1e-6 dB below its exact power %v", c.Name, ang, exact)
			}
		}
	}
	c := Diverging10G16mm
	m := Misalignment{Range: c.NominalRange, LateralOffset: MM(1), IncidenceMismatch: Mrad(1)}
	exact := c.ReceivedPowerDBm(m)
	if !c.ReceivedPowerAtLeast(m, 0, c.Transceiver.SensitivityDBm) || !c.ReceivedPowerAtLeast(m, 0, exact-0.1) {
		t.Errorf("%s: a well-aligned read at %v dBm does not settle at the sensitivity or 0.1 dB below it", c.Name, exact)
	}
}

// TestReceivedPowerAtLeastZeroAllocs pins the //cyclops:hotpath contract.
func TestReceivedPowerAtLeastZeroAllocs(t *testing.T) {
	c := Diverging10G16mm
	m := Misalignment{Range: 1.8, LateralOffset: MM(3), IncidenceMismatch: Mrad(2)}
	if n := testing.AllocsPerRun(100, func() { c.ReceivedPowerAtLeast(m, 0, -20) }); n != 0 {
		t.Fatalf("ReceivedPowerAtLeast allocates %v per call, want 0", n)
	}
}

// TestReceivedPowerReachesZeroAllocs pins the //cyclops:hotpath contract on
// each of the verdict's paths: settled light, settled dark and exact.
func TestReceivedPowerReachesZeroAllocs(t *testing.T) {
	c := Diverging10G16mm
	m := Misalignment{Range: 1.8, LateralOffset: MM(3), IncidenceMismatch: Mrad(2)}
	exact := c.ReceivedPowerDBm(m)
	for _, floor := range []float64{exact - 10, exact + 10, exact} {
		if n := testing.AllocsPerRun(100, func() { c.ReceivedPowerReaches(m, 0, floor) }); n != 0 {
			t.Fatalf("ReceivedPowerReaches at floor %v allocates %v per call, want 0", floor, n)
		}
	}
}
