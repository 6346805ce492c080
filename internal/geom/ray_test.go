package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlaneIntersect(t *testing.T) {
	pl := NewPlane(V(0, 0, 5), V(0, 0, 1))
	r := NewRay(V(1, 2, 0), V(0, 0, 1))
	hit, tt, err := pl.Intersect(r)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tt, 5, eps, "t")
	if !hit.NearlyEqual(V(1, 2, 5), eps) {
		t.Errorf("hit = %v", hit)
	}
}

func TestPlaneIntersectParallel(t *testing.T) {
	pl := NewPlane(V(0, 0, 5), V(0, 0, 1))
	r := NewRay(V(0, 0, 0), V(1, 0, 0))
	if _, _, err := pl.Intersect(r); err != ErrNoIntersection {
		t.Errorf("parallel ray: err = %v", err)
	}
}

func TestPlaneIntersectBehind(t *testing.T) {
	pl := NewPlane(V(0, 0, 5), V(0, 0, 1))
	r := NewRay(V(0, 0, 10), V(0, 0, 1)) // travels away from plane
	if _, _, err := pl.Intersect(r); err != ErrNoIntersection {
		t.Errorf("ray pointing away: err = %v", err)
	}
}

func TestPlaneDistanceAndProject(t *testing.T) {
	pl := NewPlane(V(0, 0, 2), V(0, 0, 1))
	almost(t, pl.DistanceTo(V(5, 5, 7)), 5, eps, "signed dist")
	almost(t, pl.DistanceTo(V(5, 5, -1)), -3, eps, "signed dist below")
	if got := pl.Project(V(5, 5, 7)); !got.NearlyEqual(V(5, 5, 2), eps) {
		t.Errorf("Project = %v", got)
	}
}

func TestReflectSpecular(t *testing.T) {
	// 45° mirror: beam along +Z hits mirror with normal (0,-1,1)/√2 and
	// must leave along +Y.
	mirror := NewPlane(V(0, 0, 1), V(0, -1, 1))
	beam := NewRay(V(0, 0, 0), V(0, 0, 1))
	out, err := Reflect(beam, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Origin.NearlyEqual(V(0, 0, 1), eps) {
		t.Errorf("origin = %v", out.Origin)
	}
	if !out.Dir.NearlyEqual(V(0, 1, 0), eps) {
		t.Errorf("dir = %v", out.Dir)
	}
}

func TestReflectAngleOfIncidence(t *testing.T) {
	// The reflected beam makes the same angle with the normal as the
	// incident beam, for random geometries.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := randVec(rng)
		if n.IsZero() {
			continue
		}
		mirror := NewPlane(randVec(rng), n)
		origin := mirror.Point.Add(mirror.Normal.Scale(1 + rng.Float64()*5))
		// Aim somewhere on the mirror plane.
		target := mirror.Point.Add(randVec(rng).Sub(mirror.Normal.Scale(randVec(rng).Dot(mirror.Normal))))
		target = mirror.Project(target)
		dir := target.Sub(origin)
		if dir.IsZero() {
			continue
		}
		beam := NewRay(origin, dir)
		out, err := Reflect(beam, mirror)
		if err != nil {
			continue // grazing geometry; skip
		}
		inAngle := beam.Dir.Neg().AngleTo(mirror.Normal)
		outAngle := out.Dir.AngleTo(mirror.Normal)
		if math.Abs(inAngle-outAngle) > 1e-8 {
			t.Fatalf("angle in %v != angle out %v", inAngle, outAngle)
		}
		// Energy: direction stays unit.
		almost(t, out.Dir.Norm(), 1, 1e-12, "reflected dir norm")
	}
}

func TestReflectInvolution(t *testing.T) {
	// Reflecting a reflected direction off the same plane restores the
	// original direction (applied at the hit point, traveling backward).
	mirror := NewPlane(V(0, 0, 3), V(0.2, -0.3, 1))
	beam := NewRay(V(0, 0, 0), V(0.1, 0.05, 1))
	out, err := Reflect(beam, mirror)
	if err != nil {
		t.Fatal(err)
	}
	n := mirror.Normal
	back := out.Dir.Sub(n.Scale(2 * out.Dir.Dot(n)))
	if !back.NearlyEqual(beam.Dir, 1e-12) {
		t.Errorf("double reflection: %v vs %v", back, beam.Dir)
	}
}

func TestRayClosestPoint(t *testing.T) {
	r := NewRay(V(0, 0, 0), V(1, 0, 0))
	p, tt := r.ClosestPointTo(V(3, 4, 0))
	almost(t, tt, 3, eps, "t")
	if !p.NearlyEqual(V(3, 0, 0), eps) {
		t.Errorf("closest = %v", p)
	}
	almost(t, r.DistanceTo(V(3, 4, 0)), 4, eps, "dist")
	// Point behind the origin clamps to t=0.
	p, tt = r.ClosestPointTo(V(-5, 1, 0))
	almost(t, tt, 0, eps, "clamped t")
	if !p.NearlyEqual(V(0, 0, 0), eps) {
		t.Errorf("clamped closest = %v", p)
	}
}

func TestSegmentDistanceTo(t *testing.T) {
	s := Segment{A: V(0, 0, 0), B: V(2, 0, 0)}
	almost(t, s.DistanceTo(V(1, 3, 0)), 3, eps, "perpendicular")
	almost(t, s.DistanceTo(V(-2, 0, 0)), 2, eps, "before A")
	almost(t, s.DistanceTo(V(5, 4, 0)), 5, eps, "past B (3-4-5)")
	almost(t, s.DistanceTo(V(1, 0, 0)), 0, eps, "on segment")
	// Degenerate zero-length segment.
	z := Segment{A: V(1, 1, 1), B: V(1, 1, 1)}
	almost(t, z.DistanceTo(V(1, 1, 3)), 2, eps, "point segment")
}

func TestIntersectLineNegativeT(t *testing.T) {
	// The plane sits behind the ray origin: Intersect refuses, but
	// IntersectLine (used by the pointing Newton step) accepts.
	pl := NewPlane(V(0, 0, -5), V(0, 0, 1))
	r := NewRay(V(0, 0, 0), V(0, 0, 1))
	if _, _, err := pl.Intersect(r); err == nil {
		t.Error("Intersect accepted a behind-the-origin crossing")
	}
	hit, tt, err := pl.IntersectLine(r)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tt, -5, eps, "line parameter")
	if !hit.NearlyEqual(V(0, 0, -5), eps) {
		t.Errorf("line hit = %v", hit)
	}
	// Parallel still fails.
	if _, _, err := pl.IntersectLine(NewRay(V(0, 0, 0), V(1, 0, 0))); err == nil {
		t.Error("parallel line accepted")
	}
}

func TestRayAt(t *testing.T) {
	r := NewRay(V(1, 1, 1), V(0, 0, 2)) // normalizes dir
	if got := r.At(3); !got.NearlyEqual(V(1, 1, 4), eps) {
		t.Errorf("At = %v", got)
	}
}

// Plane.DistanceTo and Plane.Project are test helpers: the signed plane
// distance and orthogonal projection, the oracles the reflection tests
// measure against.

// DistanceTo returns the signed distance from point q to the plane, positive
// on the side the normal points toward.
func (pl Plane) DistanceTo(q Vec3) float64 {
	return q.Sub(pl.Point).Dot(pl.Normal)
}

// Project returns the orthogonal projection of q onto the plane.
func (pl Plane) Project(q Vec3) Vec3 {
	return q.Sub(pl.Normal.Scale(pl.DistanceTo(q)))
}
