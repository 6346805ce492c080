package gma

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

// Property tests on the GMA model's physical invariants.

func gmaQuickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestPropertyBeamDirUnit(t *testing.T) {
	p := Nominal()
	f := func(v1, v2 float64) bool {
		v1 = math.Mod(v1, 10)
		v2 = math.Mod(v2, 10)
		b, err := p.Beam(v1, v2)
		if err != nil {
			return true // out of the fold's geometric range: fine
		}
		return math.Abs(b.Dir.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, gmaQuickCfg(1)); err != nil {
		t.Error(err)
	}
}

func TestPropertyOriginOnSecondMirrorPlane(t *testing.T) {
	// The output origin p must lie on the (rotated) second mirror plane,
	// which always contains Q2.
	p := Nominal()
	f := func(v1, v2 float64) bool {
		v1 = math.Mod(v1, 8)
		v2 = math.Mod(v2, 8)
		b, err := p.Beam(v1, v2)
		if err != nil {
			return true
		}
		n2 := geom.AxisAngle(p.R2, p.Theta1*v2).Apply(p.N2.Unit())
		return math.Abs(b.Origin.Sub(p.Q2).Dot(n2)) < 1e-9
	}
	if err := quick.Check(f, gmaQuickCfg(2)); err != nil {
		t.Error(err)
	}
}

func TestPropertyVoltageSymmetry(t *testing.T) {
	// The second mirror's deflection is antisymmetric about its rest
	// angle: ±v produce mirror-image directions about the rest plane.
	p := Nominal()
	f := func(v float64) bool {
		v = math.Mod(v, 5)
		b0, e0 := p.Beam(0, 0)
		bp, e1 := p.Beam(0, v)
		bm, e2 := p.Beam(0, -v)
		if e0 != nil || e1 != nil || e2 != nil {
			return true
		}
		ap := b0.Dir.AngleTo(bp.Dir)
		am := b0.Dir.AngleTo(bm.Dir)
		return math.Abs(ap-am) < 1e-9
	}
	if err := quick.Check(f, gmaQuickCfg(3)); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeflectionLinearity(t *testing.T) {
	// Optical deflection of the second mirror is exactly 2·θ₁·Δv —
	// rotation composition about a fixed axis is exact, not small-angle.
	p := Nominal()
	f := func(v float64) bool {
		v = math.Mod(v, 6)
		b0, e0 := p.Beam(0, 0)
		b1, e1 := p.Beam(0, v)
		if e0 != nil || e1 != nil {
			return true
		}
		want := math.Abs(2 * p.Theta1 * v)
		// Normalize into [0, π].
		for want > math.Pi {
			want = 2*math.Pi - want
		}
		return math.Abs(b0.Dir.AngleTo(b1.Dir)-want) < 1e-9
	}
	if err := quick.Check(f, gmaQuickCfg(4)); err != nil {
		t.Error(err)
	}
}

func TestPropertyTransformedPreservesAngles(t *testing.T) {
	// A rigid transform preserves every angle between beams.
	rng := xrand.New(5)
	p := Perturbed(rng)
	m := geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(0.3, 1, -0.2), 1.1),
		geom.V(2, -1, 0.5),
	)
	pw := p.Transformed(m)
	f := func(a1, a2, b1, b2 float64) bool {
		a1, a2 = math.Mod(a1, 4), math.Mod(a2, 4)
		b1, b2 = math.Mod(b1, 4), math.Mod(b2, 4)
		la, e1 := p.Beam(a1, a2)
		lb, e2 := p.Beam(b1, b2)
		wa, e3 := pw.Beam(a1, a2)
		wb, e4 := pw.Beam(b1, b2)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return true
		}
		return math.Abs(la.Dir.AngleTo(lb.Dir)-wa.Dir.AngleTo(wb.Dir)) < 1e-9
	}
	if err := quick.Check(f, gmaQuickCfg(6)); err != nil {
		t.Error(err)
	}
}
