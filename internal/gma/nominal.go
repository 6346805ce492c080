package gma

import (
	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

// Nominal returns the catalog ("CAD design") geometry of a GVS102-style
// two-axis assembly, expressed in the assembly's own K-space frame:
//
//   - The input beam from the collimator travels along +X and strikes the
//     first mirror at the frame origin.
//   - The first mirror (rest normal (-1,1,0)/√2, rotation axis +Z) folds
//     the beam to +Y.
//   - After a 10 mm gap the second mirror (rest normal (0,-1,1)/√2,
//     rotation axis +X) folds it to +Z — toward the calibration board.
//   - θ₁ corresponds to the GVS102's 0.5 V/° command scale: 2 mechanical
//     degrees per volt ≈ 0.0349 rad/V.
//
// Rotating the first mirror steers the output in X, the second in Y, so the
// coverage cone is the rectangular cone of §2.2.
func Nominal() Params {
	return Params{
		P0:     geom.V(-0.05, 0, 0),
		X0:     geom.V(1, 0, 0),
		N1:     geom.V(-1, 1, 0),
		Q1:     geom.V(0, 0, 0),
		R1:     geom.V(0, 0, 1),
		N2:     geom.V(0, -1, 1),
		Q2:     geom.V(0, 0.010, 0),
		R2:     geom.V(1, 0, 0),
		Theta1: 0.0349,
	}
}

// Perturbed returns Nominal with small manufacturing/assembly deviations
// drawn from rng: sub-millimeter positions, sub-degree mirror attitudes,
// and a fraction-of-a-percent gain error. A prototype's true GMA differs
// from its CAD drawing by about this much — it is exactly the gap the
// K-space calibration of §4.1 exists to close, and the reason TX-GMA and
// RX-GMA "will likely have different values for p₀ and x⃗₀" even when built
// from identical parts.
func Perturbed(rng *xrand.Rand) Params {
	p := Nominal()
	jv := func(v geom.Vec3, s float64) geom.Vec3 {
		return v.Add(geom.V(rng.NormFloat64()*s, rng.NormFloat64()*s, rng.NormFloat64()*s))
	}
	const (
		posJitter = 0.5e-3 // 0.5 mm on mounting positions
		dirJitter = 5e-3   // ~0.3° on directions
	)
	p.P0 = jv(p.P0, posJitter)
	p.X0 = jv(p.X0, dirJitter)
	p.N1 = jv(p.N1, dirJitter)
	p.Q1 = jv(p.Q1, posJitter)
	p.R1 = jv(p.R1, dirJitter)
	p.N2 = jv(p.N2, dirJitter)
	p.Q2 = jv(p.Q2, posJitter)
	p.R2 = jv(p.R2, dirJitter)
	p.Theta1 *= 1 + rng.NormFloat64()*0.002
	return p
}
