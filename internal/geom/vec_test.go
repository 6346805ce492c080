package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestVecBasics(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	almost(t, a.Dot(b), 1*4+2*-5+3*6, eps, "Dot")
	almost(t, a.Norm(), math.Sqrt(14), eps, "Norm")
	almost(t, a.Norm2(), 14, eps, "Norm2")
}

func TestCrossOrthogonality(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-2, 0.5, 4)
	c := a.Cross(b)
	almost(t, c.Dot(a), 0, eps, "c·a")
	almost(t, c.Dot(b), 0, eps, "c·b")
}

func TestCrossHandedness(t *testing.T) {
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); !got.NearlyEqual(V(0, 0, 1), eps) {
		t.Errorf("x×y = %v, want z", got)
	}
}

func TestUnitZeroSafe(t *testing.T) {
	var zero Vec3
	if got := zero.Unit(); got != zero {
		t.Errorf("Unit(0) = %v", got)
	}
	if !zero.IsZero() {
		t.Error("zero.IsZero() = false")
	}
	if V(1e-300, 0, 0).IsZero() {
		t.Error("tiny vector reported zero")
	}
}

func TestUnitLength(t *testing.T) {
	for _, v := range []Vec3{V(3, 4, 0), V(1e-8, 1e-8, 1e-8), V(-5, 2, 7)} {
		almost(t, v.Unit().Norm(), 1, 1e-12, "Unit length of "+v.String())
	}
}

func TestAngleTo(t *testing.T) {
	almost(t, V(1, 0, 0).AngleTo(V(0, 1, 0)), math.Pi/2, eps, "90°")
	almost(t, V(1, 0, 0).AngleTo(V(1, 0, 0)), 0, eps, "0°")
	almost(t, V(1, 0, 0).AngleTo(V(-1, 0, 0)), math.Pi, eps, "180°")
	// Robust for nearly-parallel vectors (acos would lose precision here).
	tiny := 1e-8
	got := V(1, 0, 0).AngleTo(V(1, tiny, 0))
	almost(t, got, tiny, 1e-12, "tiny angle")
}

func TestDistAndLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(2, 0, 0)
	almost(t, a.Dist(b), 2, eps, "Dist")
	if got := a.Lerp(b, 0.25); !got.NearlyEqual(V(0.5, 0, 0), eps) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.NearlyEqual(b, eps) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestOrthonormal(t *testing.T) {
	for _, v := range []Vec3{V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 1), V(-0.3, 2, -7)} {
		u1, u2 := v.Orthonormal()
		n := v.Unit()
		almost(t, u1.Norm(), 1, eps, "|u1|")
		almost(t, u2.Norm(), 1, eps, "|u2|")
		almost(t, u1.Dot(n), 0, eps, "u1·n")
		almost(t, u2.Dot(n), 0, eps, "u2·n")
		almost(t, u1.Dot(u2), 0, eps, "u1·u2")
		// Right-handed: n × u1 = u2... our construction gives u2 = n×u1.
		if !n.Cross(u1).NearlyEqual(u2, 1e-9) {
			t.Errorf("basis not right-handed for %v", v)
		}
	}
}

func TestFinite(t *testing.T) {
	if !V(1, 2, 3).Finite() {
		t.Error("finite vector reported non-finite")
	}
	if V(math.NaN(), 0, 0).Finite() {
		t.Error("NaN reported finite")
	}
	if V(0, math.Inf(1), 0).Finite() {
		t.Error("Inf reported finite")
	}
}

// randVec produces bounded random vectors for property tests.
func randVec(r *rand.Rand) Vec3 {
	return V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
}

func TestPropertyDotCommutes(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9*(1+math.Abs(a.Dot(b)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyCrossAnticommutes(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		return a.Cross(b).NearlyEqual(b.Cross(a).Neg(), 1e-6*(1+a.Norm()*b.Norm()))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// quickCfg bounds testing/quick's inputs to a sane range: the default
// generator produces huge magnitudes where float64 cancellation dwarfs any
// geometric tolerance.
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(42)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.Float64()*200 - 100)
			}
		},
	}
}
