package gma

import (
	"math"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

func TestNominalZeroVoltageBeam(t *testing.T) {
	beam, err := Nominal().Beam(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At rest the assembly folds +X → +Y → +Z.
	if !beam.Dir.NearlyEqual(geom.V(0, 0, 1), 1e-9) {
		t.Errorf("rest beam dir = %v, want +Z", beam.Dir)
	}
	// Originating point is on the second mirror (the 10 mm gap point).
	if !beam.Origin.NearlyEqual(geom.V(0, 0.010, 0), 1e-9) {
		t.Errorf("rest beam origin = %v", beam.Origin)
	}
}

func TestVoltageSteering(t *testing.T) {
	p := Nominal()
	rest, _ := p.Beam(0, 0)

	// Driving the second mirror rotates the output in the Y-Z plane by
	// twice the mechanical angle.
	b2, err := p.Beam(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotAngle := rest.Dir.AngleTo(b2.Dir)
	if math.Abs(gotAngle-2*p.Theta1) > 1e-9 {
		t.Errorf("second-mirror deflection = %v rad/V, want %v", gotAngle, 2*p.Theta1)
	}
	if math.Abs(b2.Dir.X) > 1e-9 {
		t.Errorf("second mirror leaked X deflection: %v", b2.Dir)
	}

	// Driving the first mirror steers in X.
	b1, err := p.Beam(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1.Dir.X) < 1e-3 {
		t.Errorf("first mirror produced no X deflection: %v", b1.Dir)
	}
}

func TestDistortionOriginMoves(t *testing.T) {
	// The footnote-6 effect: the output beam's originating point p is NOT
	// constant — driving the first mirror moves the strike point on the
	// second mirror. This is the distortion [58] that the full model
	// captures and the fixed-origin simplification of [32,33] misses.
	p := Nominal()
	b0, _ := p.Beam(0, 0)
	b1, _ := p.Beam(2, 0)
	if b0.Origin.Dist(b1.Origin) < 1e-5 {
		t.Errorf("origin did not move with first-mirror voltage: %v vs %v",
			b0.Origin, b1.Origin)
	}
}

func TestBoardHitCenter(t *testing.T) {
	p := Nominal().Compile()
	board := geom.NewPlane(geom.V(0, 0, 1.5), geom.V(0, 0, -1))
	hit, err := p.BoardHit(0, 0, board)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.NearlyEqual(geom.V(0, 0.010, 1.5), 1e-9) {
		t.Errorf("rest hit = %v", hit)
	}
}

func TestBoardHitSmallAngleLinearity(t *testing.T) {
	// For small voltages the board displacement is ≈ 2·θ₁·v·distance.
	p := Nominal().Compile()
	board := geom.NewPlane(geom.V(0, 0, 1.5), geom.V(0, 0, -1))
	h0, _ := p.BoardHit(0, 0, board)
	h1, _ := p.BoardHit(0, 0.1, board)
	moved := h0.Dist(h1)
	want := 2 * p.Src.Theta1 * 0.1 * 1.5
	if math.Abs(moved-want)/want > 0.02 {
		t.Errorf("small-angle displacement = %v, want ≈%v", moved, want)
	}
}

func TestBeamMissesMirror(t *testing.T) {
	p := Nominal()
	// Point the input beam away from the first mirror entirely.
	p.X0 = geom.V(-1, 0, 0)
	if _, err := p.Beam(0, 0); err == nil {
		t.Error("expected miss error")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 50; i++ {
		p := Perturbed(rng)
		q, err := FromVector(p.Vector())
		if err != nil {
			t.Fatal(err)
		}
		if q != p {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", p, q)
		}
	}
}

func TestFromVectorWrongLength(t *testing.T) {
	if _, err := FromVector(make([]float64, 7)); err == nil {
		t.Error("short vector accepted")
	}
}

func TestTransformedConsistency(t *testing.T) {
	// Evaluating the transformed model equals transforming the
	// evaluation: G_world(v) == M·G_local(v).
	rng := xrand.New(4)
	p := Perturbed(rng)
	m := geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(1, 2, 0.5), 0.8),
		geom.V(0.3, -1.2, 2.0),
	)
	pw := p.Transformed(m)
	for i := 0; i < 20; i++ {
		v1 := rng.Float64()*4 - 2
		v2 := rng.Float64()*4 - 2
		local, err := p.Beam(v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		world, err := pw.Beam(v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		wantRay := m.ApplyRay(local)
		if !world.Origin.NearlyEqual(wantRay.Origin, 1e-9) {
			t.Fatalf("transformed origin mismatch: %v vs %v", world.Origin, wantRay.Origin)
		}
		if !world.Dir.NearlyEqual(wantRay.Dir, 1e-9) {
			t.Fatalf("transformed dir mismatch: %v vs %v", world.Dir, wantRay.Dir)
		}
	}
}

func TestValid(t *testing.T) {
	if err := Nominal().Valid(); err != nil {
		t.Errorf("nominal invalid: %v", err)
	}
	bad := Nominal()
	bad.Theta1 = 0
	if bad.Valid() == nil {
		t.Error("zero Theta1 accepted")
	}
	bad = Nominal()
	bad.N1 = geom.Vec3{}
	if bad.Valid() == nil {
		t.Error("zero normal accepted")
	}
	bad = Nominal()
	bad.Q2 = geom.V(math.NaN(), 0, 0)
	if bad.Valid() == nil {
		t.Error("NaN point accepted")
	}
}

// TestValidDeterministicMessage pins the error text when several fields
// are invalid at once: Valid must always blame the first bad field in
// declaration order, not whichever a map iteration happened to visit
// first (the bug cyclops-vet's map-order rule caught).
func TestValidDeterministicMessage(t *testing.T) {
	bad := Nominal()
	bad.N1 = geom.Vec3{}
	bad.R2 = geom.Vec3{}
	for i := 0; i < 100; i++ {
		err := bad.Valid()
		if err == nil {
			t.Fatal("invalid params accepted")
		}
		if got := err.Error(); got != "gma: N1 is zero" {
			t.Fatalf("iteration %d: error %q, want %q (field order must be deterministic)",
				i, got, "gma: N1 is zero")
		}
	}
	bad = Nominal()
	bad.Q1 = geom.V(math.Inf(1), 0, 0)
	bad.Q2 = geom.V(math.NaN(), 0, 0)
	for i := 0; i < 100; i++ {
		err := bad.Valid()
		if err == nil {
			t.Fatal("non-finite params accepted")
		}
		if got := err.Error(); got != "gma: Q1 is not finite" {
			t.Fatalf("iteration %d: error %q, want %q (field order must be deterministic)",
				i, got, "gma: Q1 is not finite")
		}
	}
}

func TestPerturbedStaysFunctional(t *testing.T) {
	rng := xrand.New(99)
	board := geom.NewPlane(geom.V(0, 0, 1.5), geom.V(0, 0, -1))
	for i := 0; i < 100; i++ {
		p := Perturbed(rng)
		if err := p.Valid(); err != nil {
			t.Fatalf("perturbed params invalid: %v", err)
		}
		c := p.Compile()
		if _, err := c.BoardHit(0, 0, board); err != nil {
			t.Fatalf("perturbed assembly cannot hit board: %v", err)
		}
	}
}

func TestPerturbedDiffersFromNominal(t *testing.T) {
	rng := xrand.New(1)
	p := Perturbed(rng)
	if p == Nominal() {
		t.Error("perturbation was a no-op")
	}
	// But only slightly: rest beams differ by well under a degree of
	// direction and a few mm of board hit.
	board := geom.NewPlane(geom.V(0, 0, 1.5), geom.V(0, 0, -1))
	nominal, perturbed := Nominal().Compile(), p.Compile()
	h0, _ := nominal.BoardHit(0, 0, board)
	h1, err := perturbed.BoardHit(0, 0, board)
	if err != nil {
		t.Fatal(err)
	}
	if d := h0.Dist(h1); d > 0.1 {
		t.Errorf("perturbation moved rest hit by %v m — too much", d)
	}
}
