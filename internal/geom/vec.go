// Package geom provides the 3-D geometric primitives used throughout
// Cyclops: vectors, rays, planes, rotations (axis-angle and quaternion),
// and rigid transforms. All angles are radians and all lengths are meters
// unless a name says otherwise.
//
// The package is deliberately small and allocation-free: every type is a
// plain value type so that the hot pointing loop (which evaluates the GMA
// forward model thousands of times per second) never touches the heap.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector (or point) in meters.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|² without the square root.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Unit returns v/|v|. The zero vector is returned unchanged so callers
// never divide by zero; use IsZero to detect that case explicitly.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	if n == 1 {
		// Already unit length: scaling by 1/1 is an exact identity, so
		// skipping it returns bit-identical components. Hot paths
		// (compiled GMA evaluation, pose deltas) hit this constantly.
		return v
	}
	return v.Scale(1 / n)
}

// IsZero reports whether every component is exactly zero.
func (v Vec3) IsZero() bool { return v == Vec3{} }

// Dist returns the Euclidean distance |v-w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Lerp linearly interpolates from v to w: result = v + t·(w-v).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// AngleTo returns the angle in radians between v and w, in [0, π].
// It is numerically robust near 0 and π (uses atan2 instead of acos).
func (v Vec3) AngleTo(w Vec3) float64 {
	c := v.Cross(w).Norm()
	d := v.Dot(w)
	return math.Atan2(c, d)
}

// NearlyEqual reports whether v and w agree to within tol in every
// component-wise difference (Euclidean distance).
//
//cyclops:keep test oracle for seven packages' tests, and public API through cyclops.Vec3
func (v Vec3) NearlyEqual(w Vec3, tol float64) bool {
	return v.Dist(w) <= tol
}

// Orthonormal returns two unit vectors u1, u2 such that (v.Unit(), u1, u2)
// form a right-handed orthonormal basis. v must be non-zero.
func (v Vec3) Orthonormal() (Vec3, Vec3) {
	n := v.Unit()
	// Pick the axis least aligned with n to avoid degeneracy.
	var a Vec3
	ax, ay, az := math.Abs(n.X), math.Abs(n.Y), math.Abs(n.Z)
	switch {
	case ax <= ay && ax <= az:
		a = Vec3{1, 0, 0}
	case ay <= az:
		a = Vec3{0, 1, 0}
	default:
		a = Vec3{0, 0, 1}
	}
	u1 := n.Cross(a).Unit()
	u2 := n.Cross(u1)
	return u1, u2
}

// String renders the vector with millimeter precision, which is the scale
// that matters in Cyclops (link tolerances are a few mm).
func (v Vec3) String() string {
	return fmt.Sprintf("(%.4f, %.4f, %.4f)", v.X, v.Y, v.Z)
}

// Finite reports whether all components are finite (no NaN/Inf).
func (v Vec3) Finite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}
