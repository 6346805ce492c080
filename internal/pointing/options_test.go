package pointing

import (
	"math"
	"testing"
)

// TestOptionsValidateTol pins the regression the Validate gate exists
// for: a NaN Tol used to slip through the `Tol <= 0` defaulting (NaN
// compares false against everything), leaving a tolerance that no step
// magnitude could ever satisfy — every solve silently burned MaxIter
// iterations and returned ErrNoConverge. Non-finite and negative
// tolerances must now be rejected at the door by both option types and
// both solver entry points.
func TestOptionsValidateTol(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.3e-3, -1}
	good := []float64{0, 0.3e-3, 1e-6}

	for _, tol := range bad {
		if err := (GPrimeOptions{Tol: tol}).Validate(); err == nil {
			t.Errorf("GPrimeOptions{Tol: %v}.Validate() = nil, want error", tol)
		}
		if err := (PointOptions{Tol: tol}).Validate(); err == nil {
			t.Errorf("PointOptions{Tol: %v}.Validate() = nil, want error", tol)
		}
		// A bad G′ Tol must fail PointOptions validation too (the P
		// solver hands its GPrime options to every inner solve).
		if err := (PointOptions{GPrime: GPrimeOptions{Tol: tol}}).Validate(); err == nil {
			t.Errorf("PointOptions{GPrime.Tol: %v}.Validate() = nil, want error", tol)
		}
	}
	for _, tol := range good {
		if err := (GPrimeOptions{Tol: tol}).Validate(); err != nil {
			t.Errorf("GPrimeOptions{Tol: %v}.Validate() = %v, want nil", tol, err)
		}
		if err := (PointOptions{Tol: tol}).Validate(); err != nil {
			t.Errorf("PointOptions{Tol: %v}.Validate() = %v, want nil", tol, err)
		}
	}
}

// TestSolversRejectInvalidTol checks the gate is actually wired into the
// solver entry points: a poisoned tolerance fails immediately (zero
// iterations consumed) instead of shaping the solve.
func TestSolversRejectInvalidTol(t *testing.T) {
	ct, cr, v, tau := warmFixture(t)

	_, _, iters, err := GPrimeCompiled(&ct, tau, v.TX1, v.TX2, GPrimeOptions{Tol: math.NaN()})
	if err == nil {
		t.Fatal("GPrimeCompiled accepted a NaN Tol")
	}
	if iters != 0 {
		t.Fatalf("GPrimeCompiled consumed %d iterations before rejecting a NaN Tol", iters)
	}

	res, err := PointCompiled(&ct, &cr, v, PointOptions{Tol: math.Inf(1)})
	if err == nil {
		t.Fatal("PointCompiled accepted an infinite Tol")
	}
	if res.Iterations != 0 || res.BeamEvals != 0 {
		t.Fatalf("PointCompiled consumed work (%d iters, %d evals) before rejecting an infinite Tol",
			res.Iterations, res.BeamEvals)
	}

	if _, err := PointCompiled(&ct, &cr, v, PointOptions{GPrime: GPrimeOptions{Tol: -1}}); err == nil {
		t.Fatal("PointCompiled accepted a negative G' Tol")
	}
}

// validGPrime is GPrimeOptions.Validate's acceptance rule: every float
// finite and non-negative, MaxIter non-negative.
func validGPrime(o GPrimeOptions) bool {
	for _, v := range []float64{o.Epsilon, o.Tol, o.MaxStep, o.VoltLimit} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return o.MaxIter >= 0
}

// checkDefaulted requires an accepted option set to default to positive,
// finite values the solver can iterate with.
func checkDefaulted(t *testing.T, o GPrimeOptions) {
	t.Helper()
	o.defaults()
	for _, v := range []float64{o.Epsilon, o.Tol, o.MaxStep, o.VoltLimit} {
		if !(v > 0) || math.IsInf(v, 1) {
			t.Fatalf("accepted GPrimeOptions default to %+v", o)
		}
	}
	if o.MaxIter <= 0 {
		t.Fatalf("accepted GPrimeOptions default to MaxIter %d", o.MaxIter)
	}
}

// FuzzGPrimeOptionsValidate: Validate never panics, rejects every NaN,
// infinite or negative field, accepts every other set, and an accepted
// set defaults to positive, finite values.
func FuzzGPrimeOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, eps, tol, maxStep, voltLimit float64, maxIter int) {
		o := GPrimeOptions{Epsilon: eps, Tol: tol, MaxIter: maxIter, MaxStep: maxStep, VoltLimit: voltLimit}
		err := o.Validate()
		if want := validGPrime(o); (err == nil) != want {
			t.Fatalf("GPrimeOptions%+v.Validate() = %v, want accepted %v", o, err, want)
		}
		if err == nil {
			checkDefaulted(t, o)
		}
	})
}

// FuzzPointOptionsValidate: the same contract for PointOptions, whose own
// Tol and MaxIter follow the G′ rule and whose G′ options must validate.
func FuzzPointOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, tol float64, maxIter int, eps, gTol, maxStep, voltLimit float64, gMaxIter int) {
		g := GPrimeOptions{Epsilon: eps, Tol: gTol, MaxIter: gMaxIter, MaxStep: maxStep, VoltLimit: voltLimit}
		o := PointOptions{Tol: tol, MaxIter: maxIter, GPrime: g}
		err := o.Validate()
		want := tol >= 0 && !math.IsInf(tol, 1) && maxIter >= 0 && validGPrime(g)
		if (err == nil) != want {
			t.Fatalf("PointOptions%+v.Validate() = %v, want accepted %v", o, err, want)
		}
		if err == nil {
			o.defaults()
			if !(o.Tol > 0) || math.IsInf(o.Tol, 1) || o.MaxIter <= 0 {
				t.Fatalf("accepted PointOptions default to Tol %v, MaxIter %d", o.Tol, o.MaxIter)
			}
			checkDefaulted(t, o.GPrime)
		}
	})
}

// TestOptionsValidateFields extends the Tol regression to the other
// fields: a NaN, infinite or negative Epsilon, MaxStep or VoltLimit, or a
// negative MaxIter, used to pass Validate and reach the solve.
func TestOptionsValidateFields(t *testing.T) {
	for _, bad := range []GPrimeOptions{
		{Epsilon: math.NaN()}, {Epsilon: -0.01}, {MaxStep: math.Inf(1)}, {MaxStep: -3},
		{VoltLimit: math.NaN()}, {VoltLimit: -12}, {MaxIter: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("GPrimeOptions%+v.Validate() = nil, want error", bad)
		}
		if (PointOptions{GPrime: bad}).Validate() == nil {
			t.Errorf("PointOptions{GPrime: %+v}.Validate() = nil, want error", bad)
		}
	}
	if (PointOptions{MaxIter: -1}).Validate() == nil {
		t.Error("PointOptions{MaxIter: -1}.Validate() = nil, want error")
	}
	if err := (PointOptions{Tol: 1e-4, MaxIter: 5, GPrime: GPrimeOptions{Epsilon: 0.02, MaxIter: 4, MaxStep: 1, VoltLimit: 10}}).Validate(); err != nil {
		t.Errorf("explicit valid options rejected: %v", err)
	}
}
