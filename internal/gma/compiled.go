package gma

import (
	"fmt"
	"math"

	"cyclops/internal/geom"
)

// Pre-wrapped mirror-miss errors. Params.Beam used to wrap
// ErrBeamMissesMirror with fmt.Errorf on every failing call; the hot
// pointing loop probes beams that can miss (coarse seeding sweeps the full
// voltage square), and a heap allocation per miss would break the
// zero-allocation contract of the compiled path. The messages and the
// errors.Is(err, ErrBeamMissesMirror) behavior are unchanged.
var (
	errFirstMirror  = fmt.Errorf("first mirror: %w", ErrBeamMissesMirror)
	errSecondMirror = fmt.Errorf("second mirror: %w", ErrBeamMissesMirror)
)

// mirrorRot is one mirror's precompiled Rodrigues rotation: the unit
// rotation axis, the axis outer-product terms that AxisAngle rebuilds from
// scratch on every call, and the unit zero-voltage normal the rotation is
// applied to.
type mirrorRot struct {
	axis                   geom.Vec3 // unit rotation axis (r⃗ᵢ normalized)
	xx, xy, xz, yy, yz, zz float64   // axis outer products
	n                      geom.Vec3 // unit zero-voltage normal (n⃗ᵢ normalized)
}

func newMirrorRot(axis, normal geom.Vec3) mirrorRot {
	u := axis.Unit()
	return mirrorRot{
		axis: u,
		xx:   u.X * u.X, xy: u.X * u.Y, xz: u.X * u.Z,
		yy: u.Y * u.Y, yz: u.Y * u.Z, zz: u.Z * u.Z,
		n: normal.Unit(),
	}
}

// rotated returns R(axis, theta)·n, matching AxisAngle followed by
// Mat3.Apply bit for bit: the matrix entries use the same left-associated
// products (x*y*oc ≡ (x*y)*oc, with the x*y factor precompiled; IEEE
// multiplication is commutative, so the transposed entries' y*x equals the
// cached x*y exactly), and math.Sincos returns exactly (Sin, Cos) — pinned
// by TestSincosBitIdentical in internal/geom.
func (m *mirrorRot) rotated(theta float64) geom.Vec3 {
	s, c := math.Sincos(theta)
	oc := 1 - c
	x, y, z := m.axis.X, m.axis.Y, m.axis.Z
	m00, m01, m02 := c+m.xx*oc, m.xy*oc-z*s, m.xz*oc+y*s
	m10, m11, m12 := m.xy*oc+z*s, c+m.yy*oc, m.yz*oc-x*s
	m20, m21, m22 := m.xz*oc-y*s, m.yz*oc+x*s, c+m.zz*oc
	v := m.n
	return geom.Vec3{
		X: m00*v.X + m01*v.Y + m02*v.Z,
		Y: m10*v.X + m11*v.Y + m12*v.Z,
		Z: m20*v.X + m21*v.Y + m22*v.Z,
	}
}

// Compiled is a GMA model preprocessed for repeated Beam evaluation. The
// pointing function evaluates G thousands of times per second (three beam
// evaluations per G′ iteration, two models per coincidence step), but only
// the two mirror angles change between calls — everything else in Params
// is voltage-independent. Compile hoists that invariant work (unit
// normalization of five direction vectors, the input ray, the Rodrigues
// axis products, the first mirror's plane offset) so Beam runs the
// voltage-dependent remainder only, with zero heap allocations.
//
// The contract is strict bit-identity: for every (v1, v2),
// Compiled.Beam(v1, v2) returns exactly the floats (and the same error
// classification) Params.Beam returns. TestCompiledBeamBitIdentical
// enforces this over randomized models and voltage sweeps.
type Compiled struct {
	// Src is the source parameter set, kept for callers that need the
	// raw §4.1 quantities (reporting, re-compilation after a transform).
	Src Params

	in      geom.Ray  // unit-direction input beam (p₀, x⃗₀/|x⃗₀|)
	q1SubP0 geom.Vec3 // q₁ − p₀: the first plane offset seen by Intersect
	q2      geom.Vec3 // second mirror plane point
	m1, m2  mirrorRot
	theta1  float64
}

// Compile precomputes the voltage-independent parts of G. The returned
// value is self-contained; callers typically keep a pointer and call Beam
// on it from the hot loop.
func (p Params) Compile() Compiled {
	in := geom.NewRay(p.P0, p.X0)
	return Compiled{
		Src:     p,
		in:      in,
		q1SubP0: p.Q1.Sub(p.P0),
		q2:      p.Q2,
		m1:      newMirrorRot(p.R1, p.N1),
		m2:      newMirrorRot(p.R2, p.N2),
		theta1:  p.Theta1,
	}
}

// Beam evaluates G(v1, v2) exactly as Params.Beam does — same §4.1
// sequence, same floats, same error classification — without recomputing
// the voltage-independent subexpressions and without touching the heap.
//
// Two deliberate reuses keep it lean while staying bit-identical: the
// reflection's d·n is the intersection's denominator recomputed (both are
// pure, so reusing the first result is exact), and the plane normals are
// the rotated unit normals passed through the same Unit() normalization
// NewPlane applies.
//
//cyclops:hotpath zero-alloc contract pinned by TestCompiledBeamZeroAllocs and make alloc-check
func (c *Compiled) Beam(v1, v2 float64) (geom.Ray, error) {
	return c.beam(v1, v2, nil)
}

// TracedBeam is Beam that also fills the evaluation's BeamTrace, which
// BeamTrace.Moved needs. The ray and error are Beam's bit for bit: both
// run one sequence, and the trace only reads its intermediate values. The
// trace is meaningful only when the error is nil.
//
//cyclops:hotpath the exact geometry read of every Plant.ReadLight the light certificate does not settle; zero-alloc contract pinned by TestCompiledBeamZeroAllocs and make alloc-check
func (c *Compiled) TracedBeam(v1, v2 float64) (geom.Ray, BeamTrace, error) {
	tr := BeamTrace{v1: v1, v2: v2, theta1: c.theta1}
	r, err := c.beam(v1, v2, &tr)
	return r, tr, err
}

// beam is Beam's §4.1 sequence. A non-nil tr receives the hit parameters,
// pivot distances and denominators of a beam that hits both mirrors.
func (c *Compiled) beam(v1, v2 float64, tr *BeamTrace) (geom.Ray, error) {
	pn1 := c.m1.rotated(c.theta1 * v1).Unit()
	pn2 := c.m2.rotated(c.theta1 * v2).Unit()

	// First mirror: Reflect(in, Plane{q₁, pn1}).
	d := c.in.Dir
	denom := d.Dot(pn1)
	if math.Abs(denom) < 1e-15 {
		return geom.Ray{}, errFirstMirror
	}
	t := c.q1SubP0.Dot(pn1) / denom
	if t < 0 {
		return geom.Ray{}, errFirstMirror
	}
	hit := c.in.At(t)
	dir1 := d.Sub(pn1.Scale(2 * denom)).Unit()

	// Second mirror: Reflect(mid, Plane{q₂, pn2}).
	denom2 := dir1.Dot(pn2)
	if math.Abs(denom2) < 1e-15 {
		return geom.Ray{}, errSecondMirror
	}
	t2 := c.q2.Sub(hit).Dot(pn2) / denom2
	if t2 < 0 {
		return geom.Ray{}, errSecondMirror
	}
	hit2 := hit.Add(dir1.Scale(t2))
	dir2 := dir1.Sub(pn2.Scale(2 * denom2)).Unit()
	if tr != nil {
		tr.t1, tr.h1, tr.den1 = t, hit.Dist(c.Src.Q1), math.Abs(denom)
		tr.t2, tr.h2, tr.den2 = t2, hit2.Dist(c.q2), math.Abs(denom2)
	}
	return geom.Ray{Origin: hit2, Dir: dir2}, nil
}

// BoardHit evaluates f(G(v1,v2)) for a target board: the point where the
// output beam strikes the given plane. This is the observable quantity of
// the K-space training rig (Figure 8).
func (c *Compiled) BoardHit(v1, v2 float64, board geom.Plane) (geom.Vec3, error) {
	beam, err := c.Beam(v1, v2)
	if err != nil {
		return geom.Vec3{}, err
	}
	hit, _, err := board.Intersect(beam)
	if err != nil {
		return geom.Vec3{}, fmt.Errorf("board: %w", err)
	}
	return hit, nil
}

// BeamTrace is what a Lipschitz bound on G needs from one evaluation at
// voltages (v1, v2): for each mirror, the ray parameter of its hit, the
// hit's distance from the mirror's pivot point (q₁ or q₂, which lie on the
// rotation axes) and the magnitude of the incidence denominator d·n. The
// hit parameters and denominators are the very values Beam tests for a
// miss.
type BeamTrace struct {
	v1, v2 float64

	theta1       float64
	t1, h1, den1 float64
	t2, h2, den2 float64
}

// Moved bounds how far the beam traced at (tr.v1, tr.v2) moves when the
// voltages change to (v1, v2): its origin by at most dOrigin and its
// direction by at most dDir, as an angle and so also as a chord. ok is
// false when the bound cannot rule out a miss at (v1, v2), and for
// non-finite input. DESIGN §8 derives each term; FuzzBeamMoved holds them
// above the computed motion.
//
// Mirror i's normal turns by at most εᵢ = |θ₁|·|Δvᵢ|. Reflections are
// isometries, and swapping one mirror plane for one turned by εᵢ turns
// every reflected direction by at most 2εᵢ, so the direction moves by at
// most dDir = 2(ε₁+ε₂), an angle. A hit on a plane through pivot q with
// unit normal n moves, when n turns by a chord δ, by |hit − q|·δ/|d·n'|
// along the line; when the line's start moves by α, by α(1 + 1/|d·n|);
// and when its direction turns by a chord η, by t·η(1 + 1/|d'·n|).
//
//cyclops:hotpath evaluated for both devices on every certified Plant.ReadLight; zero-alloc contract pinned by TestBeamMovedZeroAllocs and make alloc-check
func (tr *BeamTrace) Moved(v1, v2 float64) (dOrigin, dDir float64, ok bool) {
	th := math.Abs(tr.theta1)
	e1 := th * math.Abs(v1-tr.v1)
	e2 := th * math.Abs(v2-tr.v2)
	// First mirror: the input ray is fixed, so only the plane turns.
	lo1 := tr.den1 - e1
	if !(lo1 > beamMovedMinDen) {
		return 0, 0, false
	}
	a1 := tr.h1 * e1 / lo1
	// Second mirror: the incoming direction turns by the chord eta ≤ 2ε₁,
	// its start moves by a1 and the plane turns by ε₂; lo2 bounds every
	// intermediate denominator.
	eta := 2 * e1
	lo2 := tr.den2 - eta - e2
	if !(lo2 > beamMovedMinDen) {
		return 0, 0, false
	}
	k := 1 + 1/lo2
	shift := tr.t2*eta*k + a1*k
	a2 := shift + (tr.h2+shift)*e2/lo2
	if !(tr.t1 > a1+beamMovedMinHit && tr.t2 > a1+a2+tr.t2*eta+beamMovedMinHit) {
		return 0, 0, false
	}
	return a2, 2 * (e1 + e2), true
}

// beamMovedMinDen and beamMovedMinHit keep a certified beam far from
// Beam's miss tests: every denominator stays above 1e-6, far above the
// 1e-15 test, and every hit parameter 1e-9 m above 0, far above the
// ≈1e-16 m rounding of the computed parameter.
const (
	beamMovedMinDen = 1e-6
	beamMovedMinHit = 1e-9
)
