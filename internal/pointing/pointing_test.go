package pointing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
)

// fixture builds a TX model at the world origin (beam exiting +Z) and an
// RX model 1.75 m away facing back down at it — the ceiling-to-headset
// geometry flipped into a convenient frame.
func fixture(seed int64) (gt, gr gma.Params) {
	rng := rand.New(rand.NewSource(seed))
	gt = gma.Perturbed(rng)
	rxMount := geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(0, 1, 0), math.Pi),
		geom.V(0.25, 0.15, 1.75),
	)
	gr = gma.Perturbed(rng).Transformed(rxMount)
	return gt, gr
}

func TestGPrimeHitsTarget(t *testing.T) {
	gt, _ := fixture(1)
	targets := []geom.Vec3{
		{X: 0.1, Y: 0.05, Z: 1.5},
		{X: -0.2, Y: 0.1, Z: 1.75},
		{X: 0, Y: 0, Z: 2.0},
		{X: 0.3, Y: -0.25, Z: 1.6},
	}
	for _, tau := range targets {
		v1, v2, iters, err := GPrime(gt, tau, 0, 0, GPrimeOptions{})
		if err != nil {
			t.Fatalf("target %v: %v", tau, err)
		}
		beam, err := gt.Beam(v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		if d := beam.DistanceTo(tau); d > 1e-4 {
			t.Errorf("target %v: beam misses by %v m", tau, d)
		}
		if iters > 8 {
			t.Errorf("target %v: %d iterations, want ≤8", tau, iters)
		}
	}
}

func TestGPrimeConvergesFast(t *testing.T) {
	// The paper observes 2–4 iterations. Cold starts from zero across a
	// spread of targets should average in that range.
	gt, _ := fixture(2)
	rng := rand.New(rand.NewSource(3))
	var total, n int
	for i := 0; i < 50; i++ {
		tau := geom.V(rng.Float64()*0.6-0.3, rng.Float64()*0.6-0.3, 1.5+rng.Float64()*0.5)
		_, _, iters, err := GPrime(gt, tau, 0, 0, GPrimeOptions{})
		if err != nil {
			continue
		}
		total += iters
		n++
	}
	if n < 45 {
		t.Fatalf("only %d/50 targets solved", n)
	}
	avg := float64(total) / float64(n)
	if avg < 1.5 || avg > 6 {
		t.Errorf("average G' iterations = %.1f, paper observes 2-4", avg)
	}
}

func TestGPrimeWarmStart(t *testing.T) {
	// Warm starts (the real-time loop's previous voltages) converge at
	// least as fast as cold starts.
	gt, _ := fixture(4)
	tau := geom.V(0.1, 0.1, 1.7)
	v1, v2, _, err := GPrime(gt, tau, 0, 0, GPrimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tau2 := tau.Add(geom.V(0.005, -0.003, 0))
	_, _, warm, err := GPrime(gt, tau2, v1, v2, GPrimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, cold, err := GPrime(gt, tau2, 0, 0, GPrimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm > cold {
		t.Errorf("warm start took %d iters vs cold %d", warm, cold)
	}
}

func TestPointAlignsBeams(t *testing.T) {
	gt, gr := fixture(5)
	res, err := Point(gt, gr, Voltages{}, PointOptions{})
	if err != nil {
		t.Fatalf("point failed after %d iters: %v", res.Iterations, err)
	}
	// Lemma 1 coincidence: each beam passes through the other's origin
	// to sub-millimeter precision.
	if res.Residual > 1e-3 {
		t.Errorf("coincidence residual = %v m", res.Residual)
	}
	bt, _ := gt.Beam(res.V.TX1, res.V.TX2)
	br, _ := gr.Beam(res.V.RX1, res.V.RX2)
	if d := bt.DistanceTo(br.Origin); d > 1e-3 {
		t.Errorf("TX beam misses RX capture point by %v", d)
	}
	if d := br.DistanceTo(bt.Origin); d > 1e-3 {
		t.Errorf("RX reverse beam misses TX origin by %v", d)
	}
	// And the two beams are anti-parallel (the light retraces the
	// imaginary beam).
	if ang := bt.Dir.AngleTo(br.Dir.Neg()); ang > 2e-3 {
		t.Errorf("beams not anti-parallel: %v rad", ang)
	}
}

func TestPointIterationCount(t *testing.T) {
	// §4.3: P converges in 2–5 outer iterations.
	var total, n int
	for seed := int64(10); seed < 40; seed++ {
		gt, gr := fixture(seed)
		res, err := Point(gt, gr, Voltages{}, PointOptions{})
		if err != nil {
			continue
		}
		total += res.Iterations
		n++
	}
	if n < 25 {
		t.Fatalf("only %d/30 fixtures solved", n)
	}
	avg := float64(total) / float64(n)
	if avg < 1.5 || avg > 7 {
		t.Errorf("average P iterations = %.1f, paper observes 2-5", avg)
	}
}

func TestPointWarmStartFewerIterations(t *testing.T) {
	gt, gr := fixture(6)
	cold, err := Point(gt, gr, Voltages{}, PointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Move the RX a few millimeters (one tracking interval of motion)
	// and re-point from the previous solution.
	gr2 := gr.Transformed(geom.NewPose(geom.QuatIdentity(), geom.V(0.004, -0.002, 0.001)))
	warm, err := Point(gt, gr2, cold.V, PointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start %d iters vs cold %d", warm.Iterations, cold.Iterations)
	}
}

func TestCoincidenceResidualZeroAtAlignment(t *testing.T) {
	gt, gr := fixture(8)
	res, err := Point(gt, gr, Voltages{}, PointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ct, cr := gt.Compile(), gr.Compile()
	r := coincidenceResidual(&ct, &cr, res.V)
	if r < 0 || r > 1e-3 {
		t.Errorf("residual at alignment = %v", r)
	}
	// A detuned voltage set has a visibly larger residual.
	detuned := res.V
	detuned.TX1 += 0.05
	if coincidenceResidual(&ct, &cr, detuned) < 10*r {
		t.Error("residual not sensitive to detuning")
	}
}

// Non-finite inputs are refused at the door with typed sentinels, before
// any model evaluation — a NaN would otherwise survive every tolerance
// comparison and reach the galvo DAQ.
func TestNonFiniteInputsRejected(t *testing.T) {
	gt, gr := fixture(1)
	ct, cr := gt.Compile(), gr.Compile()
	nan := math.NaN()

	// G′: poisoned target point.
	_, _, iters, err := GPrimeCompiled(&ct, geom.V(nan, 0, 1), 0, 0, GPrimeOptions{})
	if !errors.Is(err, ErrNonFiniteTarget) {
		t.Errorf("NaN target: err = %v, want ErrNonFiniteTarget", err)
	}
	if iters != 0 {
		t.Errorf("NaN target burned %d iterations", iters)
	}

	// G′: poisoned start voltages.
	if _, _, _, err := GPrimeCompiled(&ct, geom.V(0, 0, 1), math.Inf(1), 0, GPrimeOptions{}); !errors.Is(err, ErrNonFiniteStart) {
		t.Errorf("Inf start: err = %v, want ErrNonFiniteStart", err)
	}

	// P: poisoned start voltages.
	res, err := PointCompiled(&ct, &cr, Voltages{TX1: nan}, PointOptions{})
	if !errors.Is(err, ErrNonFiniteStart) {
		t.Errorf("NaN P start: err = %v, want ErrNonFiniteStart", err)
	}
	if res.BeamEvals != 0 {
		t.Errorf("NaN P start consumed %d beam evals", res.BeamEvals)
	}

	// Finite inputs do not trip the guards.
	if _, err := PointCompiled(&ct, &cr, Voltages{}, PointOptions{}); errors.Is(err, ErrNonFiniteStart) || errors.Is(err, ErrNonFiniteTarget) {
		t.Errorf("finite solve tripped a finiteness sentinel: %v", err)
	}
}

func TestVoltagesFinite(t *testing.T) {
	if !(Voltages{1, 2, 3, 4}).Finite() {
		t.Error("finite voltages reported non-finite")
	}
	for _, bad := range []Voltages{
		{TX1: math.NaN()}, {TX2: math.Inf(1)}, {RX1: math.Inf(-1)}, {RX2: math.NaN()},
	} {
		if bad.Finite() {
			t.Errorf("%+v reported finite", bad)
		}
	}
}
