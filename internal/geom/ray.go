package geom

import (
	"errors"
	"math"
)

// Ray is a half-infinite line: a beam originating at Origin traveling along
// the unit direction Dir. In the paper's notation a beam is the pair
// (p, x⃗); Origin is p and Dir is x⃗.
type Ray struct {
	Origin Vec3
	Dir    Vec3 // unit length by construction via NewRay
}

// NewRay builds a ray, normalizing the direction.
func NewRay(origin, dir Vec3) Ray {
	return Ray{Origin: origin, Dir: dir.Unit()}
}

// At returns the point Origin + t·Dir.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// ErrNoIntersection is returned when a ray does not hit a plane or disk
// (parallel, behind the origin, or outside the aperture).
var ErrNoIntersection = errors.New("geom: no intersection")

// Plane is the set of points p with (p - Point)·Normal = 0.
type Plane struct {
	Point  Vec3
	Normal Vec3 // unit length by construction via NewPlane
}

// NewPlane builds a plane through point with the given normal (normalized).
func NewPlane(point, normal Vec3) Plane {
	return Plane{Point: point, Normal: normal.Unit()}
}

// Intersect returns the point where the ray crosses the plane and the ray
// parameter t ≥ 0 at which it does. Rays traveling parallel to the plane
// (or away from it) return ErrNoIntersection.
func (pl Plane) Intersect(r Ray) (Vec3, float64, error) {
	denom := r.Dir.Dot(pl.Normal)
	if math.Abs(denom) < 1e-15 {
		return Vec3{}, 0, ErrNoIntersection
	}
	t := pl.Point.Sub(r.Origin).Dot(pl.Normal) / denom
	if t < 0 {
		return Vec3{}, 0, ErrNoIntersection
	}
	return r.At(t), t, nil
}

// IntersectLine returns the point where the infinite line through r
// (both directions) crosses the plane. Unlike Intersect it accepts
// negative ray parameters; only truly parallel lines fail. The pointing
// iteration uses this so that a badly initialized beam whose plane-crossing
// lies "behind" it still produces a usable Newton step.
func (pl Plane) IntersectLine(r Ray) (Vec3, float64, error) {
	denom := r.Dir.Dot(pl.Normal)
	if math.Abs(denom) < 1e-15 {
		return Vec3{}, 0, ErrNoIntersection
	}
	t := pl.Point.Sub(r.Origin).Dot(pl.Normal) / denom
	return r.At(t), t, nil
}

// Reflect implements the mirror reflection operator R of §4.1: given an
// incoming beam (as a Ray) and a mirror (an infinite plane), it returns the
// outgoing beam. The outgoing origin is the point where the beam strikes
// the mirror and the outgoing direction is the specular reflection of the
// incoming direction. Returns ErrNoIntersection when the beam misses the
// mirror plane (travels parallel or away).
func Reflect(beam Ray, mirror Plane) (Ray, error) {
	hit, _, err := mirror.Intersect(beam)
	if err != nil {
		return Ray{}, err
	}
	d := beam.Dir
	n := mirror.Normal
	out := d.Sub(n.Scale(2 * d.Dot(n)))
	return Ray{Origin: hit, Dir: out.Unit()}, nil
}

// ClosestPointTo returns the point on the ray closest to q and its ray
// parameter (clamped to t ≥ 0).
func (r Ray) ClosestPointTo(q Vec3) (Vec3, float64) {
	t := q.Sub(r.Origin).Dot(r.Dir)
	if t < 0 {
		t = 0
	}
	return r.At(t), t
}

// DistanceTo returns the distance from q to the nearest point on the ray.
func (r Ray) DistanceTo(q Vec3) float64 {
	p, _ := r.ClosestPointTo(q)
	return p.Dist(q)
}

// Segment is the line segment from A to B.
type Segment struct {
	A, B Vec3
}

// DistanceTo returns the distance from point q to the nearest point on the
// segment. Used for line-of-sight checks against spherical occluders.
func (s Segment) DistanceTo(q Vec3) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Norm2()
	if l2 == 0 {
		return s.A.Dist(q)
	}
	t := q.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Add(d.Scale(t)).Dist(q)
}
