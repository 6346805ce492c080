// Package gma implements the paper's parameterized Galvo-Mirror-Assembly
// model G (§4.1): the closed-form map from a pair of mirror voltages to the
// output beam (originating point p on the second mirror and direction x⃗).
//
// The same model serves three roles:
//
//   - with its *true* (hidden) parameters it drives the physical galvo
//     simulator (internal/galvo);
//   - with *learned* parameters it is the artifact of the K-space
//     calibration (internal/kspace);
//   - mapped into VR-space (internal/vrspace) it powers the real-time
//     pointing function (internal/pointing).
package gma

import (
	"errors"
	"fmt"
	"math"

	"cyclops/internal/geom"
)

// Params are the nine GMA quantities of §4.1(A), Figure 7:
//
//	input beam (p₀, x⃗₀); first mirror (n⃗₁, q₁, r⃗₁); second mirror
//	(n⃗₂, q₂, r⃗₂); and the voltage-to-angle constant θ₁.
//
// Directions need not be stored normalized; Beam normalizes on use, which
// keeps the parameter space unconstrained for the optimizer.
type Params struct {
	P0 geom.Vec3 // input beam originating point
	X0 geom.Vec3 // input beam direction
	N1 geom.Vec3 // first mirror normal at zero voltage
	Q1 geom.Vec3 // point on the first mirror plane and its rotation axis
	R1 geom.Vec3 // first mirror rotation axis direction
	N2 geom.Vec3 // second mirror normal at zero voltage
	Q2 geom.Vec3 // point on the second mirror plane and its rotation axis
	R2 geom.Vec3 // second mirror rotation axis direction

	// Theta1 is the mirror rotation per volt (radians/volt), assumed the
	// same for both mirrors as in the paper.
	Theta1 float64
}

// ErrBeamMissesMirror is returned when, for the given voltages, the beam
// path fails to strike one of the mirrors (wildly wrong parameters during
// early optimizer iterations can do this).
var ErrBeamMissesMirror = errors.New("gma: beam misses a mirror")

// Beam evaluates G(v1, v2): the output beam for mirror voltages v1 (first
// mirror) and v2 (second mirror). The returned ray's Origin is the point p
// on the second mirror and Dir is the unit direction x⃗.
//
// The evaluation follows §4.1 exactly:
//
//	n⃗₁' = R(r⃗₁, θ₁·v1)·n⃗₁          n⃗₂' = R(r⃗₂, θ₁·v2)·n⃗₂
//	(p_mid, x⃗_mid) = R(p₀, x⃗₀, n⃗₁', q₁)
//	(p, x⃗)        = R(p_mid, x⃗_mid, n⃗₂', q₂)
//
// Note q₁ and q₂ do not move under rotation — they lie on the rotation
// axes.
func (p Params) Beam(v1, v2 float64) (geom.Ray, error) {
	n1 := geom.AxisAngle(p.R1, p.Theta1*v1).Apply(p.N1.Unit())
	n2 := geom.AxisAngle(p.R2, p.Theta1*v2).Apply(p.N2.Unit())

	in := geom.NewRay(p.P0, p.X0)
	mid, err := geom.Reflect(in, geom.NewPlane(p.Q1, n1))
	if err != nil {
		return geom.Ray{}, errFirstMirror
	}
	out, err := geom.Reflect(mid, geom.NewPlane(p.Q2, n2))
	if err != nil {
		return geom.Ray{}, errSecondMirror
	}
	return out, nil
}

// NumParams is the length of the flat parameter vector used by the
// K-space fit: 8 vectors × 3 components + θ₁.
const NumParams = 25

// Vector flattens the parameters for the optimizer.
func (p Params) Vector() []float64 {
	return []float64{
		p.P0.X, p.P0.Y, p.P0.Z,
		p.X0.X, p.X0.Y, p.X0.Z,
		p.N1.X, p.N1.Y, p.N1.Z,
		p.Q1.X, p.Q1.Y, p.Q1.Z,
		p.R1.X, p.R1.Y, p.R1.Z,
		p.N2.X, p.N2.Y, p.N2.Z,
		p.Q2.X, p.Q2.Y, p.Q2.Z,
		p.R2.X, p.R2.Y, p.R2.Z,
		p.Theta1,
	}
}

// FromVector rebuilds Params from a flat vector produced by Vector.
func FromVector(v []float64) (Params, error) {
	if len(v) != NumParams {
		return Params{}, fmt.Errorf("gma: parameter vector has %d values, want %d", len(v), NumParams)
	}
	vec := func(i int) geom.Vec3 { return geom.V(v[i], v[i+1], v[i+2]) }
	return Params{
		P0: vec(0), X0: vec(3),
		N1: vec(6), Q1: vec(9), R1: vec(12),
		N2: vec(15), Q2: vec(18), R2: vec(21),
		Theta1: v[24],
	}, nil
}

// Transformed returns the parameters re-expressed in a parent frame: every
// point and direction is mapped through the pose. This is how a GMA model
// learned in K-space is carried into VR-space once the §4.2 mapping is
// known.
func (p Params) Transformed(m geom.Pose) Params {
	return Params{
		P0: m.Apply(p.P0), X0: m.ApplyDir(p.X0),
		N1: m.ApplyDir(p.N1), Q1: m.Apply(p.Q1), R1: m.ApplyDir(p.R1),
		N2: m.ApplyDir(p.N2), Q2: m.Apply(p.Q2), R2: m.ApplyDir(p.R2),
		Theta1: p.Theta1,
	}
}

// Valid performs a sanity check: directions non-zero, θ₁ non-zero, all
// values finite. Fields are checked in declaration order so the error
// always names the same field for the same input — callers (and their
// golden tests) see stable error text even when several fields are bad.
func (p Params) Valid() error {
	type field struct {
		name string
		v    geom.Vec3
	}
	directions := []field{
		{"X0", p.X0}, {"N1", p.N1}, {"R1", p.R1}, {"N2", p.N2}, {"R2", p.R2},
	}
	for _, f := range directions {
		if f.v.IsZero() {
			return fmt.Errorf("gma: %s is zero", f.name)
		}
	}
	all := []field{
		{"P0", p.P0}, {"X0", p.X0}, {"N1", p.N1}, {"Q1", p.Q1}, {"R1", p.R1},
		{"N2", p.N2}, {"Q2", p.Q2}, {"R2", p.R2},
	}
	for _, f := range all {
		if !f.v.Finite() {
			return fmt.Errorf("gma: %s is not finite", f.name)
		}
	}
	if p.Theta1 == 0 || math.IsNaN(p.Theta1) || math.IsInf(p.Theta1, 0) {
		return errors.New("gma: Theta1 invalid")
	}
	return nil
}
