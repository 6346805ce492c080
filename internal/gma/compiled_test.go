package gma

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
)

// randParams builds a plausible two-mirror assembly with randomized
// perturbations: geometry close enough to the nominal rig that most
// voltage pairs produce a beam, but with every parameter off-axis and
// non-unit so the compiled path's normalizations are exercised.
func randParams(rng *rand.Rand) Params {
	j := func(scale float64) float64 { return (rng.Float64()*2 - 1) * scale }
	jv := func(scale float64) geom.Vec3 { return geom.V(j(scale), j(scale), j(scale)) }
	p := Params{
		P0:     geom.V(-0.05, 0, 0).Add(jv(0.01)),
		X0:     geom.V(1, 0, 0).Add(jv(0.2)).Scale(1 + rng.Float64()),
		N1:     geom.V(-1, 1, 0).Add(jv(0.3)).Scale(1 + rng.Float64()),
		Q1:     jv(0.005),
		R1:     geom.V(0, 0, 1).Add(jv(0.2)),
		N2:     geom.V(0, -1, 1).Add(jv(0.3)).Scale(1 + rng.Float64()),
		Q2:     geom.V(0, 0.04, 0).Add(jv(0.005)),
		R2:     geom.V(1, 0, 0).Add(jv(0.2)),
		Theta1: 0.02 + rng.Float64()*0.02,
	}
	return p
}

func rayBits(r geom.Ray) [6]uint64 {
	return [6]uint64{
		math.Float64bits(r.Origin.X), math.Float64bits(r.Origin.Y), math.Float64bits(r.Origin.Z),
		math.Float64bits(r.Dir.X), math.Float64bits(r.Dir.Y), math.Float64bits(r.Dir.Z),
	}
}

// TestCompiledBeamBitIdentical is the compiled model's contract: for every
// model and voltage pair, Compiled.Beam returns exactly the floats — and
// exactly the error — that the uncompiled Params.Beam returns.
func TestCompiledBeamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models, voltsPerModel := 200, 500
	var hits, misses int
	for m := 0; m < models; m++ {
		p := randParams(rng)
		c := p.Compile()
		for k := 0; k < voltsPerModel; k++ {
			// Sweep well past the ±12 V operating range so the
			// miss/error paths are compared too.
			v1 := (rng.Float64()*2 - 1) * 40
			v2 := (rng.Float64()*2 - 1) * 40
			want, wantErr := p.Beam(v1, v2)
			got, gotErr := c.Beam(v1, v2)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("model %d Beam(%v, %v): err %v vs compiled %v", m, v1, v2, wantErr, gotErr)
			}
			if wantErr != nil {
				misses++
				if gotErr != wantErr {
					t.Fatalf("model %d Beam(%v, %v): error value %q vs compiled %q",
						m, v1, v2, wantErr, gotErr)
				}
				if !errors.Is(gotErr, ErrBeamMissesMirror) {
					t.Fatalf("compiled miss error does not wrap ErrBeamMissesMirror: %v", gotErr)
				}
				continue
			}
			hits++
			if rayBits(got) != rayBits(want) {
				t.Fatalf("model %d Beam(%v, %v):\n  params   %v\n  compiled %v",
					m, v1, v2, want, got)
			}
		}
	}
	// The sweep must exercise both outcomes or the contract is vacuous.
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate sweep: %d hits, %d misses", hits, misses)
	}
}

// compiledBoardHit is Params.BoardHit's operation sequence on the
// compiled model: the beam intersected with the board.
func compiledBoardHit(c *Compiled, v1, v2 float64, board geom.Plane) (geom.Vec3, error) {
	beam, err := c.Beam(v1, v2)
	if err != nil {
		return geom.Vec3{}, err
	}
	hit, _, err := board.Intersect(beam)
	return hit, err
}

// TestCompiledBoardHitBitIdentical extends the contract through the board
// intersection used by the K-space training rig.
func TestCompiledBoardHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	board := geom.NewPlane(geom.V(1.75, 0.04, 0), geom.V(-1, 0, 0))
	for m := 0; m < 100; m++ {
		p := randParams(rng)
		c := p.Compile()
		for k := 0; k < 100; k++ {
			v1, v2 := (rng.Float64()*2-1)*12, (rng.Float64()*2-1)*12
			want, wantErr := p.BoardHit(v1, v2, board)
			got, gotErr := compiledBoardHit(&c, v1, v2, board)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("BoardHit err mismatch: %v vs %v", wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if math.Float64bits(want.X) != math.Float64bits(got.X) ||
				math.Float64bits(want.Y) != math.Float64bits(got.Y) ||
				math.Float64bits(want.Z) != math.Float64bits(got.Z) {
				t.Fatalf("BoardHit(%v, %v): %v vs compiled %v", v1, v2, want, got)
			}
		}
	}
}

// TestCompiledBeamZeroAllocs pins the zero-allocation contract on both the
// success and the miss path.
func TestCompiledBeamZeroAllocs(t *testing.T) {
	p := Nominal()
	c := p.Compile()
	var sink geom.Ray
	if n := testing.AllocsPerRun(1000, func() {
		r, err := c.Beam(1.3, -0.7)
		if err != nil {
			t.Fatalf("nominal beam failed: %v", err)
		}
		sink = r
	}); n != 0 {
		t.Fatalf("Compiled.Beam allocates %v per successful call, want 0", n)
	}
	// Find a voltage pair that genuinely misses (rotating the first
	// mirror toward grazing incidence), then pin the miss path too.
	missV1, found := 0.0, false
	for v := 5.0; v <= 400 && !found; v += 0.5 {
		if _, err := c.Beam(v, 0); err != nil {
			missV1, found = v, true
		}
	}
	if !found {
		t.Fatal("no missing voltage found in sweep")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := c.Beam(missV1, 0); err == nil {
			t.Fatalf("expected a miss at v1=%v", missV1)
		}
	}); n != 0 {
		t.Fatalf("Compiled.Beam allocates %v per missing call, want 0", n)
	}
	_ = sink
}
