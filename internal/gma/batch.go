package gma

import (
	"math"

	"cyclops/internal/geom"
)

// BeamBatchBuf is the caller-owned structure-of-arrays workspace for
// Compiled.BeamBatch: parallel slices of input voltage pairs and output
// beams. len(V1) defines the batch size N; V2, Origin, Dir, and Err must
// each hold at least N elements. Callers on the hot path back the slices
// with stack arrays (or reuse one heap buffer per loop) so a batched
// evaluation allocates nothing — BeamBatch only writes through the
// slices, never retains or grows them.
type BeamBatchBuf struct {
	// V1, V2 are the input voltage pairs: pair i is (V1[i], V2[i]).
	V1, V2 []float64
	// Origin, Dir receive the output beam for each pair that evaluates
	// cleanly (both zeroed when Err[i] != nil, matching Beam's zero Ray).
	Origin []geom.Vec3
	Dir    []geom.Vec3
	// Err receives the per-pair error classification: nil, or one of the
	// pre-wrapped mirror-miss errors Beam itself returns (errors.Is
	// against ErrBeamMissesMirror behaves identically).
	Err []error
}

// Ray reassembles the output beam for pair i. Only meaningful when
// Err[i] == nil.
func (b *BeamBatchBuf) Ray(i int) geom.Ray {
	return geom.Ray{Origin: b.Origin[i], Dir: b.Dir[i]}
}

// BeamBatch evaluates G over len(b.V1) voltage pairs in one call. For
// every pair i the outputs are bit-identical to Compiled.Beam(V1[i],
// V2[i]) — the same §4.1 operation sequence in the same order per pair,
// with the same pre-wrapped error values on a mirror miss — so batching
// is purely a loop restructure, not a numerical change (pinned by
// TestBeamBatchBitIdentical over randomized models and ≥100k pairs).
//
// What the batch form buys over N scalar calls: the voltage-independent
// model loads (input ray, plane offsets, both precompiled Rodrigues
// rotations) are hoisted out of the per-pair loop into locals, so the
// solver's grouped evaluations (the G′ 3-probe, the 9×9 coarse seed)
// pay them once per call instead of once per evaluation.
//
//cyclops:hotpath zero-alloc contract pinned by TestBeamBatchZeroAllocs and make alloc-check
func (c *Compiled) BeamBatch(b *BeamBatchBuf) {
	n := len(b.V1)
	v1 := b.V1
	v2 := b.V2[:n]
	org := b.Origin[:n]
	dir := b.Dir[:n]
	errs := b.Err[:n]

	// Hoisted model loads: everything Beam reads from *Compiled per
	// call, loaded once for the whole batch.
	m1, m2 := c.m1, c.m2
	d := c.in.Dir
	p0 := c.in.Origin
	q1SubP0 := c.q1SubP0
	q2 := c.q2
	theta1 := c.theta1

	for i := 0; i < n; i++ {
		pn1 := m1.rotated(theta1 * v1[i]).Unit()
		pn2 := m2.rotated(theta1 * v2[i]).Unit()

		// First mirror: Reflect(in, Plane{q₁, pn1}).
		denom := d.Dot(pn1)
		if math.Abs(denom) < 1e-15 {
			org[i], dir[i], errs[i] = geom.Vec3{}, geom.Vec3{}, errFirstMirror
			continue
		}
		t := q1SubP0.Dot(pn1) / denom
		if t < 0 {
			org[i], dir[i], errs[i] = geom.Vec3{}, geom.Vec3{}, errFirstMirror
			continue
		}
		hit := p0.Add(d.Scale(t))
		dir1 := d.Sub(pn1.Scale(2 * denom)).Unit()

		// Second mirror: Reflect(mid, Plane{q₂, pn2}).
		denom2 := dir1.Dot(pn2)
		if math.Abs(denom2) < 1e-15 {
			org[i], dir[i], errs[i] = geom.Vec3{}, geom.Vec3{}, errSecondMirror
			continue
		}
		t2 := q2.Sub(hit).Dot(pn2) / denom2
		if t2 < 0 {
			org[i], dir[i], errs[i] = geom.Vec3{}, geom.Vec3{}, errSecondMirror
			continue
		}
		org[i] = hit.Add(dir1.Scale(t2))
		dir[i] = dir1.Sub(pn2.Scale(2 * denom2)).Unit()
		errs[i] = nil
	}
}
