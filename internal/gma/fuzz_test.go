package gma

import (
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
)

// FuzzCompiledBeamMatchesParams holds every compiled evaluation to the
// uncompiled §4.1 sequence bit for bit, errors included: Compiled.Beam,
// TracedBeam and a BeamBatch of the pair and its mirror image against
// Params.Beam, and Compiled.BoardHit against Params.Beam followed by the
// board intersection. The model is randParams of the seed; the committed
// seeds cover the nominal operating range, a miss on each mirror, a beam
// parallel to the board and non-finite voltages.
func FuzzCompiledBeamMatchesParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, v1, v2, boardX float64) {
		p := randParams(rand.New(rand.NewSource(seed)))
		c := p.Compile()
		want, wantErr := p.Beam(v1, v2)
		check := func(name string, got geom.Ray, gotErr error) {
			t.Helper()
			if errText(gotErr) != errText(wantErr) || (wantErr == nil && rayBits(got) != rayBits(want)) {
				t.Fatalf("%s(%v, %v) = %v, %v; Params.Beam = %v, %v", name, v1, v2, got, gotErr, want, wantErr)
			}
		}
		got, gotErr := c.Beam(v1, v2)
		check("Beam", got, gotErr)
		got, _, gotErr = c.TracedBeam(v1, v2)
		check("TracedBeam", got, gotErr)

		var buf [2]struct{ o, d geom.Vec3 }
		var errs [2]error
		b := BeamBatchBuf{
			V1: []float64{v1, v2}, V2: []float64{v2, v1},
			Origin: []geom.Vec3{buf[0].o, buf[1].o}, Dir: []geom.Vec3{buf[0].d, buf[1].d}, Err: errs[:],
		}
		c.BeamBatch(&b)
		check("BeamBatch", b.Ray(0), b.Err[0])
		mirror, mirrorErr := p.Beam(v2, v1)
		if errText(b.Err[1]) != errText(mirrorErr) || (mirrorErr == nil && rayBits(b.Ray(1)) != rayBits(mirror)) {
			t.Fatalf("BeamBatch pair 1 (%v, %v) = %v, %v; Params.Beam = %v, %v", v2, v1, b.Ray(1), b.Err[1], mirror, mirrorErr)
		}

		board := geom.NewPlane(geom.V(boardX, 0.04, 0), geom.V(-1, 0, 0))
		hit, hitErr := c.BoardHit(v1, v2, board)
		wantHit, wantHitErr := paramsBoardHit(p, v1, v2, board)
		wantText := errText(wantHitErr)
		if wantErr == nil && wantHitErr != nil {
			wantText = "board: " + wantText
		}
		if errText(hitErr) != wantText || (wantHitErr == nil && vecBits(hit) != vecBits(wantHit)) {
			t.Fatalf("BoardHit(%v, %v, x=%v) = %v, %v; uncompiled %v, %v", v1, v2, boardX, hit, hitErr, wantHit, wantHitErr)
		}
	})
}

// FuzzBeamMoved holds BeamTrace.Moved above the computed motion of the
// beam: wherever it answers, the beam at the new voltages hits both
// mirrors, and its origin and direction moved by at most the bounds, less
// 1e-12 of rounding (the plant's certificate adds 1e-9). The committed
// seeds cover a zero step, noise-sized and re-point-sized steps, steps
// toward a miss on each mirror and non-finite voltages.
func FuzzBeamMoved(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, v1, v2, dv1, dv2 float64) {
		c := randParams(rand.New(rand.NewSource(seed))).Compile()
		b0, tr, err := c.TracedBeam(v1, v2)
		if err != nil {
			return
		}
		dO, dD, ok := tr.Moved(v1+dv1, v2+dv2)
		if !ok {
			return
		}
		b1, err := c.Beam(v1+dv1, v2+dv2)
		if err != nil {
			t.Fatalf("Moved(%v, %v) from (%v, %v) answers, but the beam misses: %v", v1+dv1, v2+dv2, v1, v2, err)
		}
		if got := b1.Origin.Dist(b0.Origin); got > dO+1e-12 {
			t.Fatalf("origin moved %v, bound %v", got, dO)
		}
		if got := b1.Dir.AngleTo(b0.Dir); got > dD+1e-12 {
			t.Fatalf("direction turned %v rad, bound %v", got, dD)
		}
	})
}

// TestBeamMovedZeroAllocs pins the //cyclops:hotpath contract.
func TestBeamMovedZeroAllocs(t *testing.T) {
	c := Nominal().Compile()
	_, tr, err := c.TracedBeam(1.3, -0.7)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Moved(1.3001, -0.7002) }); n != 0 {
		t.Fatalf("BeamTrace.Moved allocates %v per call, want 0", n)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func vecBits(v geom.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}
