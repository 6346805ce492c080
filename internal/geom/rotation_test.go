package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestAxisAngleBasic(t *testing.T) {
	// 90° about Z maps X to Y.
	r := AxisAngle(V(0, 0, 1), math.Pi/2)
	if got := r.Apply(V(1, 0, 0)); !got.NearlyEqual(V(0, 1, 0), eps) {
		t.Errorf("Rz(90°)·x = %v, want y", got)
	}
	// 180° about X maps Y to -Y.
	r = AxisAngle(V(1, 0, 0), math.Pi)
	if got := r.Apply(V(0, 1, 0)); !got.NearlyEqual(V(0, -1, 0), eps) {
		t.Errorf("Rx(180°)·y = %v, want -y", got)
	}
}

func TestAxisAngleIsRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		axis := randVec(rng)
		if axis.IsZero() {
			continue
		}
		theta := rng.Float64()*4*math.Pi - 2*math.Pi
		m := AxisAngle(axis, theta)
		if !m.IsRotation(1e-9) {
			t.Fatalf("AxisAngle(%v, %v) is not a rotation", axis, theta)
		}
	}
}

func TestAxisAnglePreservesAxis(t *testing.T) {
	axis := V(1, 2, -1)
	m := AxisAngle(axis, 1.234)
	if got := m.Apply(axis); !got.NearlyEqual(axis, 1e-9) {
		t.Errorf("rotation moved its own axis: %v -> %v", axis, got)
	}
}

func TestAxisAngleComposition(t *testing.T) {
	// Two rotations about the same axis compose by angle addition.
	axis := V(0.3, -0.4, 0.86)
	a, b := 0.5, 0.9
	lhs := AxisAngle(axis, a).Mul(AxisAngle(axis, b))
	rhs := AxisAngle(axis, a+b)
	v := V(1, -2, 0.5)
	if !lhs.Apply(v).NearlyEqual(rhs.Apply(v), 1e-9) {
		t.Error("same-axis rotations did not compose additively")
	}
}

func TestMat3TransposeInverse(t *testing.T) {
	m := AxisAngle(V(1, 1, 0), 0.7)
	v := V(2, -1, 3)
	back := m.Transpose().Apply(m.Apply(v))
	if !back.NearlyEqual(v, 1e-9) {
		t.Errorf("Rᵀ·R·v = %v, want %v", back, v)
	}
}

func TestMat3Det(t *testing.T) {
	almost(t, Identity3().Det(), 1, eps, "det(I)")
	almost(t, AxisAngle(V(0, 1, 0), 2.1).Det(), 1, 1e-12, "det(R)")
	// A reflection-like matrix has det -1.
	m := Identity3()
	m.M[0][0] = -1
	almost(t, m.Det(), -1, eps, "det(mirror)")
}

func TestMat3RowCol(t *testing.T) {
	m := Mat3{M: [3][3]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	if m.Row(1) != V(4, 5, 6) {
		t.Errorf("Row(1) = %v", m.Row(1))
	}
	if m.Col(2) != V(3, 6, 9) {
		t.Errorf("Col(2) = %v", m.Col(2))
	}
}

func TestQuatRotateMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		axis := randVec(rng)
		if axis.IsZero() {
			continue
		}
		theta := rng.Float64() * 2 * math.Pi
		q := QuatFromAxisAngle(axis, theta)
		m := AxisAngle(axis, theta)
		v := randVec(rng)
		if !q.Rotate(v).NearlyEqual(m.Apply(v), 1e-8*(1+v.Norm())) {
			t.Fatalf("quat and matrix disagree for axis=%v theta=%v", axis, theta)
		}
		// Quat→Mat roundtrip agrees too.
		if !q.Mat().Apply(v).NearlyEqual(m.Apply(v), 1e-8*(1+v.Norm())) {
			t.Fatalf("q.Mat() disagrees for axis=%v theta=%v", axis, theta)
		}
	}
}

func TestQuatMulComposes(t *testing.T) {
	q1 := QuatFromAxisAngle(V(0, 0, 1), math.Pi/2)
	q2 := QuatFromAxisAngle(V(1, 0, 0), math.Pi/2)
	v := V(0, 1, 0)
	// Apply q2 first, then q1.
	want := q1.Rotate(q2.Rotate(v))
	got := q1.Mul(q2).Rotate(v)
	if !got.NearlyEqual(want, eps) {
		t.Errorf("composition mismatch: %v vs %v", got, want)
	}
}

func TestQuatConjInverts(t *testing.T) {
	q := QuatFromAxisAngle(V(1, 2, 3), 1.1)
	v := V(4, 5, 6)
	if got := q.Conj().Rotate(q.Rotate(v)); !got.NearlyEqual(v, 1e-9) {
		t.Errorf("q*·q·v = %v, want %v", got, v)
	}
}

func TestQuatAngleTo(t *testing.T) {
	q0 := QuatIdentity()
	q1 := QuatFromAxisAngle(V(0, 1, 0), 0.25)
	almost(t, q0.AngleTo(q1), 0.25, 1e-9, "AngleTo")
	almost(t, q1.AngleTo(q1), 0, 1e-6, "self angle")
	// Double cover: q and -q are the same orientation.
	neg := Quat{-q1.W, -q1.X, -q1.Y, -q1.Z}
	almost(t, q1.AngleTo(neg), 0, 1e-6, "double cover")
}

func TestQuatSlerp(t *testing.T) {
	q0 := QuatIdentity()
	q1 := QuatFromAxisAngle(V(0, 0, 1), 1.0)
	mid := q0.Slerp(q1, 0.5)
	almost(t, q0.AngleTo(mid), 0.5, 1e-9, "slerp midpoint angle")
	almost(t, mid.AngleTo(q1), 0.5, 1e-9, "slerp midpoint angle 2")
	if got := q0.Slerp(q1, 0); got.AngleTo(q0) > 1e-9 {
		t.Error("Slerp(0) != q0")
	}
	if got := q0.Slerp(q1, 1); got.AngleTo(q1) > 1e-9 {
		t.Error("Slerp(1) != q1")
	}
	// Nearly-parallel fallback path.
	q2 := QuatFromAxisAngle(V(0, 0, 1), 1e-4)
	m := q0.Slerp(q2, 0.5)
	almost(t, q0.AngleTo(m), 5e-5, 1e-7, "nlerp fallback")
}

func TestQuatNormalizeZero(t *testing.T) {
	z := Quat{}
	if got := z.Normalize(); got != QuatIdentity() {
		t.Errorf("Normalize(0) = %v", got)
	}
}

func TestRotationBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		a, b := randVec(rng), randVec(rng)
		if a.IsZero() || b.IsZero() {
			continue
		}
		q := RotationBetween(a, b)
		got := q.Rotate(a.Unit())
		if !got.NearlyEqual(b.Unit(), 1e-9) {
			t.Fatalf("RotationBetween(%v,%v) maps to %v", a, b, got)
		}
	}
	// Identity for parallel inputs.
	if q := RotationBetween(V(1, 2, 3), V(2, 4, 6)); q.AngleTo(QuatIdentity()) > 1e-6 {
		t.Error("parallel inputs should yield identity")
	}
	// π for anti-parallel inputs, still mapping correctly.
	q := RotationBetween(V(0, 0, 1), V(0, 0, -1))
	if got := q.Rotate(V(0, 0, 1)); !got.NearlyEqual(V(0, 0, -1), 1e-9) {
		t.Errorf("anti-parallel rotation maps to %v", got)
	}
	// Zero input degenerates to identity rather than NaN.
	if q := RotationBetween(Vec3{}, V(1, 0, 0)); q != QuatIdentity() {
		t.Error("zero input should yield identity")
	}
}

func TestQuatFromEuler(t *testing.T) {
	// Pure yaw rotates X toward -Z (right-hand rule about +Y).
	q := QuatFromEuler(math.Pi/2, 0, 0)
	if got := q.Rotate(V(1, 0, 0)); !got.NearlyEqual(V(0, 0, -1), 1e-9) {
		t.Errorf("yaw 90°: %v", got)
	}
	// Pure pitch rotates Y toward Z? Rotation about +X maps y->z.
	q = QuatFromEuler(0, math.Pi/2, 0)
	if got := q.Rotate(V(0, 1, 0)); !got.NearlyEqual(V(0, 0, 1), 1e-9) {
		t.Errorf("pitch 90°: %v", got)
	}
}

// The general Mat3 algebra below is the test side's oracle for
// AxisAngle and Apply: production code only builds and applies rotations.

// Identity3 returns the identity matrix.
func Identity3() Mat3 {
	return Mat3{M: [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m.M[i][k] * n.M[k][j]
			}
			r.M[i][j] = s
		}
	}
	return r
}

// Transpose returns mᵀ. For a rotation matrix this is the inverse.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r.M[i][j] = m.M[j][i]
		}
	}
	return r
}

// Det returns the determinant.
func (m Mat3) Det() float64 {
	a := m.M
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

// Col returns column j as a vector.
func (m Mat3) Col(j int) Vec3 { return Vec3{m.M[0][j], m.M[1][j], m.M[2][j]} }

// Row returns row i as a vector.
func (m Mat3) Row(i int) Vec3 { return Vec3{m.M[i][0], m.M[i][1], m.M[i][2]} }

// IsRotation reports whether m is orthonormal with determinant +1, to
// within tol.
func (m Mat3) IsRotation(tol float64) bool {
	id := m.Mul(m.Transpose())
	want := Identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(id.M[i][j]-want.M[i][j]) > tol {
				return false
			}
		}
	}
	return math.Abs(m.Det()-1) <= tol
}

// TestRotationGapBoundsRotation holds |R(q)v − R(p)v| ≤ RotationGap(p, q)·|v|
// over random orientations, nearby and far apart, with q's sign flipped
// half the time (q and −q are one rotation).
func TestRotationGapBoundsRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randQuat := func() Quat {
		return Quat{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
	}
	for i := 0; i < 20000; i++ {
		p := randQuat()
		q := randQuat()
		if i%2 == 0 {
			small := QuatFromAxisAngle(V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), rng.NormFloat64()*1e-3)
			q = small.Mul(p).Normalize()
		}
		if i%4 < 2 {
			q = Quat{-q.W, -q.X, -q.Y, -q.Z}
		}
		v := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(rng.Float64() * 3)
		moved := q.Rotate(v).Dist(p.Rotate(v))
		if bound := RotationGap(p, q) * v.Norm(); moved > bound+1e-15*(1+v.Norm()) {
			t.Fatalf("p %v q %v v %v: moved %v, RotationGap bound %v", p, q, v, moved, bound)
		}
	}
}

// TestRotationGapZeroAllocs pins the //cyclops:hotpath contract.
func TestRotationGapZeroAllocs(t *testing.T) {
	p, q := QuatIdentity(), QuatFromAxisAngle(V(0, 1, 0), 0.01)
	if n := testing.AllocsPerRun(100, func() { RotationGap(p, q) }); n != 0 {
		t.Fatalf("RotationGap allocates %v per call, want 0", n)
	}
}
