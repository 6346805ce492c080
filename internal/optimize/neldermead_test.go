package optimize

import (
	"math"
	"testing"
)

func TestNMQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res := NelderMead(f, []float64{0, 0}, NMOptions{})
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Errorf("min = %v, want [3 -1] (%s)", res.X, res.Reason)
	}
}

func TestNMRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := NelderMead(f, []float64{-1.2, 1}, NMOptions{MaxIter: 5000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock min = %v, want [1 1]", res.X)
	}
}

func TestNMPlateauObjective(t *testing.T) {
	// Flat-zero outside a basin — mimics received power vs voltages,
	// which is why the paper's exhaustive alignment needs a coarse scan
	// first. NM must still descend when started inside the basin.
	f := func(x []float64) float64 {
		d := x[0]*x[0] + x[1]*x[1]
		if d > 1 {
			return 1 // plateau
		}
		return d
	}
	res := NelderMead(f, []float64{0.4, -0.3}, NMOptions{})
	if res.Cost > 1e-6 {
		t.Errorf("cost = %g inside basin", res.Cost)
	}
}

func TestNMHighDim(t *testing.T) {
	// 12-dimensional sphere — same dimensionality as the joint mapping fit.
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - float64(i)*0.1
			s += d * d
		}
		return s
	}
	x0 := make([]float64, 12)
	res := NelderMead(f, x0, NMOptions{MaxIter: 20000})
	for i, v := range res.X {
		if math.Abs(v-float64(i)*0.1) > 5e-3 {
			t.Errorf("x[%d] = %v, want %v", i, v, float64(i)*0.1)
		}
	}
}

func TestNMEmpty(t *testing.T) {
	res := NelderMead(func(x []float64) float64 { return 0 }, nil, NMOptions{})
	if res.Converged {
		t.Error("empty problem reported converged")
	}
}

func TestBisect(t *testing.T) {
	// pred(x) = x ≤ 3.2
	got := Bisect(func(x float64) bool { return x <= 3.2 }, 0, 10, 1e-9)
	if math.Abs(got-3.2) > 1e-6 {
		t.Errorf("threshold = %v, want 3.2", got)
	}
	// pred false at lo.
	if got := Bisect(func(x float64) bool { return false }, 2, 10, 1e-9); got != 2 {
		t.Errorf("all-false bisect = %v, want lo", got)
	}
	// pred true everywhere.
	if got := Bisect(func(x float64) bool { return true }, 2, 10, 1e-9); got != 10 {
		t.Errorf("all-true bisect = %v, want hi", got)
	}
}

func TestNMCostNeverWorseThanStart(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Abs(x[0]) + math.Abs(x[1])*3 + 0.5
	}
	start := []float64{4, -2}
	res := NelderMead(f, start, NMOptions{})
	if res.Cost > f(start) {
		t.Errorf("NM made the cost worse: %g > %g", res.Cost, f(start))
	}
}
