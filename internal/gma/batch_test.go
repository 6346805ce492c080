package gma

import (
	"errors"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
)

// newBeamBatchBuf returns a heap buffer sized for n pairs.
func newBeamBatchBuf(n int) *BeamBatchBuf {
	return &BeamBatchBuf{
		V1:     make([]float64, n),
		V2:     make([]float64, n),
		Origin: make([]geom.Vec3, n),
		Dir:    make([]geom.Vec3, n),
		Err:    make([]error, n),
	}
}

// TestBeamBatchBitIdentical is the batched kernel's contract: for every
// model and every pair in a batch, BeamBatch writes exactly the floats —
// and exactly the error value — that Compiled.Beam returns for that pair.
// The sweep covers >100k voltage pairs across randomized models and batch
// sizes (including the solver's real shapes, 2/3/81), with voltages far
// past the operating range so both pre-wrapped mirror-miss errors appear.
func TestBeamBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 2, 3, 5, 8, 64, 81}
	var hits, misses int
	pairs := 0
	for m := 0; pairs < 120_000; m++ {
		p := randParams(rng)
		c := p.Compile()
		for _, n := range sizes {
			buf := newBeamBatchBuf(n)
			for i := 0; i < n; i++ {
				buf.V1[i] = (rng.Float64()*2 - 1) * 40
				buf.V2[i] = (rng.Float64()*2 - 1) * 40
			}
			// Poison the outputs: every element must be written.
			for i := 0; i < n; i++ {
				buf.Origin[i] = geom.V(1e300, 1e300, 1e300)
				buf.Dir[i] = geom.V(1e300, 1e300, 1e300)
				buf.Err[i] = errors.New("stale")
			}
			c.BeamBatch(buf)
			for i := 0; i < n; i++ {
				pairs++
				want, wantErr := c.Beam(buf.V1[i], buf.V2[i])
				if buf.Err[i] != wantErr {
					t.Fatalf("model %d n=%d pair %d (%v, %v): err %v, scalar %v",
						m, n, i, buf.V1[i], buf.V2[i], buf.Err[i], wantErr)
				}
				if wantErr != nil {
					misses++
					if !errors.Is(buf.Err[i], ErrBeamMissesMirror) {
						t.Fatalf("batch miss error does not wrap ErrBeamMissesMirror: %v", buf.Err[i])
					}
				} else {
					hits++
				}
				// Error pairs must zero the outputs exactly like Beam's
				// zero Ray return, so the comparison is unconditional.
				if rayBits(buf.Ray(i)) != rayBits(want) {
					t.Fatalf("model %d n=%d pair %d (%v, %v):\n  scalar %v\n  batch  %v",
						m, n, i, buf.V1[i], buf.V2[i], want, buf.Ray(i))
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate sweep: %d hits, %d misses", hits, misses)
	}
}

// TestBeamBatchZeroAllocs pins the batched kernel's zero-allocation
// contract over a reused buffer, on a batch mixing clean pairs with a
// mirror miss (the miss path stores a pre-wrapped error, no boxing).
func TestBeamBatchZeroAllocs(t *testing.T) {
	c := Nominal().Compile()
	missV1 := findMissVoltage(t, &c)
	buf := newBeamBatchBuf(8)
	for i := range buf.V1 {
		buf.V1[i] = 1.3 - 0.1*float64(i)
		buf.V2[i] = -0.7 + 0.1*float64(i)
	}
	buf.V1[5] = missV1 // one guaranteed miss inside the batch
	if n := testing.AllocsPerRun(1000, func() {
		c.BeamBatch(buf)
	}); n != 0 {
		t.Fatalf("BeamBatch allocates %v per call, want 0", n)
	}
	if buf.Err[5] == nil || !errors.Is(buf.Err[5], ErrBeamMissesMirror) {
		t.Fatalf("expected a mirror miss at pair 5, got %v", buf.Err[5])
	}
}

// findMissVoltage scans for a first-mirror voltage that makes the nominal
// assembly miss, mirroring the probe TestCompiledBeamZeroAllocs uses.
func findMissVoltage(t *testing.T, c *Compiled) float64 {
	t.Helper()
	for v := 5.0; v <= 400; v += 0.5 {
		if _, err := c.Beam(v, 0); err != nil {
			return v
		}
	}
	t.Fatal("no missing voltage found on the nominal assembly")
	return 0
}

// benchBatch measures one BeamBatch call over n pairs (report divides to
// per-pair cost); the N=1 case isolates the fixed batch overhead against
// BenchmarkCompiledBeam.
func benchBatch(b *testing.B, n int) {
	c := Nominal().Compile()
	buf := newBeamBatchBuf(n)
	for i := 0; i < n; i++ {
		buf.V1[i] = 1.3 - 0.01*float64(i)
		buf.V2[i] = -0.7 + 0.01*float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.BeamBatch(buf)
	}
}

func BenchmarkBeamBatch1(b *testing.B)  { benchBatch(b, 1) }
func BenchmarkBeamBatch8(b *testing.B)  { benchBatch(b, 8) }
func BenchmarkBeamBatch64(b *testing.B) { benchBatch(b, 64) }
