package geom

import (
	"fmt"
	"math"

	"cyclops/internal/xmath"
)

// Mat3 is a 3×3 matrix in row-major order. It is primarily used for
// rotation matrices produced by AxisAngle (the R(r⃗, θ) operator of the
// paper's §4.1) but supports general linear maps.
type Mat3 struct {
	M [3][3]float64
}

// AxisAngle returns the rotation matrix R(axis, θ) that rotates a vector by
// angle theta (radians) about the given axis (which need not be unit
// length), following the right-hand rule. This is Rodrigues' rotation
// formula, the R(r⃗, θ) of the paper's GMA model.
func AxisAngle(axis Vec3, theta float64) Mat3 {
	u := axis.Unit()
	c, s := math.Cos(theta), math.Sin(theta)
	oc := 1 - c
	x, y, z := u.X, u.Y, u.Z
	return Mat3{M: [3][3]float64{
		{c + x*x*oc, x*y*oc - z*s, x*z*oc + y*s},
		{y*x*oc + z*s, c + y*y*oc, y*z*oc - x*s},
		{z*x*oc - y*s, z*y*oc + x*s, c + z*z*oc},
	}}
}

// Apply returns m·v.
func (m Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		m.M[0][0]*v.X + m.M[0][1]*v.Y + m.M[0][2]*v.Z,
		m.M[1][0]*v.X + m.M[1][1]*v.Y + m.M[1][2]*v.Z,
		m.M[2][0]*v.X + m.M[2][1]*v.Y + m.M[2][2]*v.Z,
	}
}

// Quat is a unit quaternion representing an orientation. W is the scalar
// part. Cyclops uses quaternions for headset orientations (the VRH-T
// reports location plus orientation) because they interpolate cleanly and
// avoid gimbal lock during fast head motion.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity is the identity orientation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds the quaternion for a rotation of theta radians
// about axis.
func QuatFromAxisAngle(axis Vec3, theta float64) Quat {
	u := axis.Unit()
	s := math.Sin(theta / 2)
	return Quat{W: math.Cos(theta / 2), X: u.X * s, Y: u.Y * s, Z: u.Z * s}
}

// QuatFromEuler builds a quaternion from intrinsic yaw (about +Y), pitch
// (about +X), then roll (about +Z) angles in radians. This matches the
// yaw/pitch/roll convention used for head-motion traces.
//
// The body is the composition qy·qx·qz expanded term by term, with the
// structurally-zero axis components kept as 0·sin(θ/2) products so every
// intermediate (including the sign of zeros) matches the generic
// QuatFromAxisAngle/Mul path bit for bit — trace generation calls this
// once per sample, and the §5.4 corpus is pinned to byte-identical
// output. TestQuatFromEulerBitIdentical enforces the equivalence.
func QuatFromEuler(yaw, pitch, roll float64) Quat {
	// xmath.Sincos3 is bit-identical to three math.Sincos calls but
	// evaluates the independent chains in one frame (see its doc).
	sy, cy, sx, cx, sz, cz := xmath.Sincos3(yaw/2, pitch/2, roll/2)
	// ±0 terms exactly as the generic path produces them (u.X*s etc.).
	zy, zx, zz := 0*sy, 0*sx, 0*sz

	// m = qy.Mul(qx) with qy=(cy, zy, sy, zy), qx=(cx, sx, zx, zx).
	mw := cy*cx - zy*sx - sy*zx - zy*zx
	mx := cy*sx + zy*cx + sy*zx - zy*zx
	my := cy*zx - zy*zx + sy*cx + zy*sx
	mz := cy*zx + zy*zx - sy*sx + zy*cx

	// m.Mul(qz) with qz=(cz, zz, zz, sz).
	return Quat{
		W: mw*cz - mx*zz - my*zz - mz*sz,
		X: mw*zz + mx*cz + my*sz - mz*zz,
		Y: mw*zz - mx*sz + my*cz + mz*zz,
		Z: mw*sz + mx*zz - my*zz + mz*cz,
	}
}

// RotationBetween returns the shortest-arc quaternion rotating direction a
// onto direction b (inputs need not be unit length). Anti-parallel inputs
// rotate π about an arbitrary perpendicular axis.
func RotationBetween(a, b Vec3) Quat {
	ua, ub := a.Unit(), b.Unit()
	if ua.IsZero() || ub.IsZero() {
		return QuatIdentity()
	}
	d := ua.Dot(ub)
	if d > 1-1e-12 {
		return QuatIdentity()
	}
	if d < -1+1e-12 {
		perp, _ := ua.Orthonormal()
		return QuatFromAxisAngle(perp, math.Pi)
	}
	axis := ua.Cross(ub)
	return QuatFromAxisAngle(axis, math.Acos(clampUnit(d)))
}

func clampUnit(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Mul returns the quaternion product q·r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit length. The zero quaternion maps to
// the identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	if n == 1 {
		// Division by 1 is an exact identity; skipping the four divides
		// is bit-identical. Quats that went through Normalize once
		// mostly land here (the norm re-computes to exactly 1 for about
		// two thirds of unit quats), which makes repeated normalization
		// in hot paths (AngleTo during pose deltas) nearly free.
		return q
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation to v: q·v·q*.
func (q Quat) Rotate(v Vec3) Vec3 {
	// Optimized form: t = 2·(q.xyz × v); v' = v + w·t + q.xyz × t
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// RotationGap bounds how far the rotations of unit quaternions p and q can
// move any one vector apart: |R(q)v − R(p)v| ≤ RotationGap(p, q)·|v|. With
// θ the angle between the two orientations, the operator norm
// ‖R(q) − R(p)‖ is 2 sin(θ/2) ≤ 4 sin(θ/4), and 2 sin(θ/4) is the smaller
// of |q − p| and |q + p| (q and −q are one rotation).
//
//cyclops:hotpath the rigid-motion term of every certified Plant.ReadLight; zero-alloc contract pinned by TestRotationGapZeroAllocs and make alloc-check
func RotationGap(p, q Quat) float64 {
	dw, dx, dy, dz := q.W-p.W, q.X-p.X, q.Y-p.Y, q.Z-p.Z
	sw, sx, sy, sz := q.W+p.W, q.X+p.X, q.Y+p.Y, q.Z+p.Z
	return 2 * math.Sqrt(min(dw*dw+dx*dx+dy*dy+dz*dz, sw*sw+sx*sx+sy*sy+sz*sz))
}

// Mat returns the equivalent rotation matrix.
func (q Quat) Mat() Mat3 {
	n := q.Normalize()
	w, x, y, z := n.W, n.X, n.Y, n.Z
	return Mat3{M: [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}}
}

// AngleTo returns the geodesic angle in radians between two orientations,
// in [0, π]. This is the angular distance used when measuring headset
// angular speed from consecutive VRH-T reports.
func (q Quat) AngleTo(r Quat) float64 {
	return AngleBetweenNormalized(q.Normalize(), r.Normalize())
}

// AngleBetweenNormalized is the core of AngleTo for inputs that are
// already the outputs of Normalize. Callers that walk a chain of
// orientations (the §5.4 slot model visits each report twice, as the b of
// one pair and the a of the next) can normalize each quaternion once and
// reuse the result; because Normalize is a pure function, the cached
// value is bit-for-bit the one AngleTo would recompute.
func AngleBetweenNormalized(a, b Quat) float64 {
	// Only the scalar part of a.Conj().Mul(b) is needed. Expanded, that
	// is a.W*b.W − (−a.X)*b.X − (−a.Y)*b.Y − (−a.Z)*b.Z; since IEEE
	// subtraction of a negated product is exactly addition of the
	// product, the four-term dot below is bit-identical to the full
	// quaternion product's W — without computing the three unused
	// components. Pose deltas run this once per trace sample.
	w := math.Abs(a.W*b.W + a.X*b.X + a.Y*b.Y + a.Z*b.Z)
	// Clamp for numeric safety.
	if w > 1 {
		w = 1
	}
	// xmath.Acos is math.Acos with the asin/satan call plumbing
	// flattened — bit-identical (see its doc and equality test).
	return 2 * xmath.Acos(w)
}

// Slerp spherically interpolates from q to r by t in [0,1].
func (q Quat) Slerp(r Quat, t float64) Quat {
	a, b := q.Normalize(), r.Normalize()
	dot := a.W*b.W + a.X*b.X + a.Y*b.Y + a.Z*b.Z
	if dot < 0 {
		b = Quat{-b.W, -b.X, -b.Y, -b.Z}
		dot = -dot
	}
	if dot > 0.9995 {
		// Nearly parallel: fall back to normalized lerp.
		return Quat{
			a.W + t*(b.W-a.W),
			a.X + t*(b.X-a.X),
			a.Y + t*(b.Y-a.Y),
			a.Z + t*(b.Z-a.Z),
		}.Normalize()
	}
	theta := math.Acos(dot)
	s := math.Sin(theta)
	wa := math.Sin((1-t)*theta) / s
	wb := math.Sin(t*theta) / s
	return Quat{
		wa*a.W + wb*b.W,
		wa*a.X + wb*b.X,
		wa*a.Y + wb*b.Y,
		wa*a.Z + wb*b.Z,
	}.Normalize()
}

// String renders the quaternion.
// Finite reports whether all components are finite (no NaN/Inf).
func (q Quat) Finite() bool {
	return !math.IsNaN(q.W) && !math.IsInf(q.W, 0) &&
		!math.IsNaN(q.X) && !math.IsInf(q.X, 0) &&
		!math.IsNaN(q.Y) && !math.IsInf(q.Y, 0) &&
		!math.IsNaN(q.Z) && !math.IsInf(q.Z, 0)
}

func (q Quat) String() string {
	return fmt.Sprintf("quat(w=%.4f, x=%.4f, y=%.4f, z=%.4f)", q.W, q.X, q.Y, q.Z)
}
