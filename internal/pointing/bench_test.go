package pointing

import (
	"errors"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
)

// warmFixture returns compiled models plus a converged voltage set, so the
// benchmarks and allocation tests exercise the warm-start path the
// real-time loop lives on (one report ≈ one small re-solve).
func warmFixture(tb testing.TB) (ct, cr gma.Compiled, v Voltages, tau geom.Vec3) {
	tb.Helper()
	gt, gr := fixture(11)
	ct, cr = gt.Compile(), gr.Compile()
	res, err := PointCompiled(&ct, &cr, Voltages{}, PointOptions{})
	if err != nil {
		tb.Fatalf("fixture alignment failed: %v", err)
	}
	// At convergence the TX solve's target is the RX beam's origin (the
	// modeled capture point); a few millimeters off that is the shape of
	// one fresh tracking report.
	br, err := cr.Beam(res.V.RX1, res.V.RX2)
	if err != nil {
		tb.Fatalf("fixture beam failed: %v", err)
	}
	return ct, cr, res.V, br.Origin.Add(geom.V(0.002, -0.001, 0))
}

// TestGPrimeCompiledZeroAllocs pins the solver's zero-allocation contract
// on the warm-start success path.
func TestGPrimeCompiledZeroAllocs(t *testing.T) {
	ct, _, v, tau := warmFixture(t)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, _, err := GPrimeCompiled(&ct, tau, v.TX1, v.TX2); err != nil {
			t.Fatalf("GPrime failed: %v", err)
		}
	}); n != 0 {
		t.Fatalf("GPrimeCompiled allocates %v per solve, want 0", n)
	}
}

// TestGPrimeCompiledColdZeroAllocs pins the contract on the cold-start
// path too: a start far from the target forces the batched 9×9 coarse
// seed (81 evaluations through one BeamBatch call over stack buffers),
// which must stay as allocation-free as the warm path.
func TestGPrimeCompiledColdZeroAllocs(t *testing.T) {
	ct, _, _, tau := warmFixture(t)
	const cold1, cold2 = 8.0, -8.0
	if b, err := ct.Beam(cold1, cold2); err == nil && b.DistanceTo(tau) <= 0.1 {
		t.Fatalf("start (%v, %v) is not cold: beam already within 0.1 m of tau", cold1, cold2)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, _, err := GPrimeCompiled(&ct, tau, cold1, cold2); err != nil {
			t.Fatalf("cold GPrime failed: %v", err)
		}
	}); n != 0 {
		t.Fatalf("cold GPrimeCompiled allocates %v per solve, want 0", n)
	}
}

// TestPointCompiledZeroAllocs extends the contract to a full warm P solve
// (metrics disabled — a nil *Metrics is the hot default inside tight
// loops that attach their own registries).
func TestPointCompiledZeroAllocs(t *testing.T) {
	ct, cr, v, _ := warmFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := PointCompiled(&ct, &cr, v, PointOptions{}); err != nil {
			t.Fatalf("Point failed: %v", err)
		}
	}); n != 0 {
		t.Fatalf("PointCompiled allocates %v per solve, want 0", n)
	}
}

// TestGPrimeDegenerateBasisZeroAllocs is the regression test for the
// fmt.Errorf calls the transitive hotpath vet rule flagged inside
// GPrimeCompiled's call tree: the no-cause failure branches now return
// the prebuilt errProbeParallel/errDegenerateBasis, so even a failing
// solve stays allocation-free. A model with Theta1 = 0 steers nowhere —
// all three Jacobian probes produce the identical beam, the per-ε
// displacement basis collapses, and iteration 1 exits through the
// degenerate-basis branch. Before the prebuilt errors this test failed:
// fmt.Errorf built a fresh error on every failing solve.
func TestGPrimeDegenerateBasisZeroAllocs(t *testing.T) {
	frozen := gma.Nominal()
	frozen.Theta1 = 0
	cf := frozen.Compile()
	b0, err := cf.Beam(0, 0)
	if err != nil {
		t.Fatalf("frozen fixture beam failed: %v", err)
	}
	// tau sits on the zero-voltage beam, so the cold-start guard keeps the
	// warm path and the solve reaches the basis solve on iteration 1.
	tau := b0.At(1.5)
	_, _, iters, err := GPrimeCompiled(&cf, tau, 0, 0)
	if !errors.Is(err, errDegenerateBasis) {
		t.Fatalf("frozen solve returned (iters=%d, err=%v), want errDegenerateBasis", iters, err)
	}
	if n := testing.AllocsPerRun(200, func() {
		GPrimeCompiled(&cf, tau, 0, 0)
	}); n != 0 {
		t.Fatalf("failing GPrimeCompiled allocates %v per solve, want 0", n)
	}
}

func BenchmarkGPrimeWarm(b *testing.B) {
	ct, _, v, tau := warmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := GPrimeCompiled(&ct, tau, v.TX1, v.TX2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPrimeWarmUncompiled is the before-shape of the same solve:
// Params in, a fresh compilation per call.
func BenchmarkGPrimeWarmUncompiled(b *testing.B) {
	gt, _ := fixture(11)
	_, _, v, tau := warmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := GPrime(gt, tau, v.TX1, v.TX2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointWarm(b *testing.B) {
	ct, cr, v, _ := warmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PointCompiled(&ct, &cr, v, PointOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointColdStart(b *testing.B) {
	ct, cr, _, _ := warmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PointCompiled(&ct, &cr, Voltages{}, PointOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
