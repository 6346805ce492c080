// Package kspace implements the first calibration stage of §4.1: learning a
// GMA model G in a known coordinate frame from grid-board samples.
//
// The rig reproduces Figure 8's setup: the assembly is fixed in front of a
// planar board with 1-inch grid cells. For each internal grid intersection
// the experimenter searches for the voltage pair that puts the beam spot on
// the intersection and records the 4-attribute sample (x, y, v1, v2). A
// non-linear least-squares fit then recovers the 25 parameters of G.
//
// The simulated rig is honest about what the physical rig can observe: the
// spot position on the board is read with ~millimeter noise (a beam spot
// judged against a printed grid), and the voltage search uses only those
// noisy observations. The Table 2 first-stage errors (≈1–2 mm average)
// emerge from exactly this observation noise, not from anything injected
// downstream.
package kspace

import (
	"errors"
	"fmt"
	"math"

	"cyclops/internal/galvo"
	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

// Inch is the grid pitch of the calibration board, meters.
const Inch = 0.0254

// Sample is one §4.1 training sample: the grid target (X, Y) on the board
// and the voltages that were found to hit it.
type Sample struct {
	X, Y   float64 // board coordinates, meters
	V1, V2 float64 // volts
}

// Rig is the simulated calibration bench.
type Rig struct {
	Dev *galvo.Device

	// BoardDistance is the GMA-to-board distance along the rest beam;
	// the prototype used 1.5 m.
	BoardDistance float64

	// ObsNoise is the 1-σ error of reading the beam-spot position
	// against the printed grid, meters.
	ObsNoise float64

	// SearchTol is how well the (noisily observed) spot must match the
	// target before the experimenter accepts the voltages.
	SearchTol float64

	rng *xrand.Rand
}

// NewRig builds a bench around a device with the prototype's geometry:
// board at 1.5 m, ~1.3 mm spot-reading noise (a multi-millimeter beam spot
// judged against a printed grid), 0.5 mm acceptance. With these the
// learned model's held-out error reproduces Table 2's first stage
// (averages 1.24–1.90 mm, maxima ≈5 mm).
func NewRig(dev *galvo.Device, seed int64) *Rig {
	return &Rig{
		Dev:           dev,
		BoardDistance: 1.5,
		ObsNoise:      1.3e-3,
		SearchTol:     1.3e-3,
		rng:           xrand.New(seed),
	}
}

// Board returns the board plane in the device's K-space frame. The board
// is the X-Y plane of K-space (as in §4.1) placed BoardDistance down the
// rest-beam axis (+Z for the nominal assembly).
func (r *Rig) Board() geom.Plane {
	return geom.NewPlane(geom.V(0, 0, r.BoardDistance), geom.V(0, 0, -1))
}

// ObserveHit commands the voltages and reads the spot position on the
// board with observation noise. It fails when the beam misses the board
// (steered outside the coverage cone).
func (r *Rig) ObserveHit(v1, v2 float64) (x, y float64, err error) {
	beam, err := r.Dev.BeamAt(v1, v2)
	if err != nil {
		return 0, 0, err
	}
	hit, _, err := r.Board().Intersect(beam)
	if err != nil {
		return 0, 0, fmt.Errorf("kspace: beam off board: %w", err)
	}
	return hit.X + r.rng.NormFloat64()*r.ObsNoise,
		hit.Y + r.rng.NormFloat64()*r.ObsNoise, nil
}

// ErrSearchFailed is returned when the voltage search cannot bring the
// spot onto the target.
var ErrSearchFailed = errors.New("kspace: voltage search did not converge")

// FindVoltages searches for the voltage pair whose beam hits board target
// (tx, ty), using only noisy spot observations — a faithful stand-in for
// the experimenter's walk-the-spot-onto-the-grid-point procedure. It
// returns the best voltages found.
func (r *Rig) FindVoltages(tx, ty float64) (v1, v2 float64, err error) {
	// Probe step for the finite-difference Jacobian: large enough that
	// the spot motion (≈ 2·θ₁·ε·distance ≈ 21 mm) dwarfs the observation
	// noise, so the 2×2 Jacobian determinant stays well-conditioned.
	const probe = 0.2
	const maxIter = 60
	// maxStep bounds each Newton update; with noisy observations an
	// occasional bad Jacobian must not fling the spot off the board.
	const maxStep = 1.5

	v1, v2 = 0, 0
	bestV1, bestV2 := v1, v2
	bestErr := math.Inf(1)

	for iter := 0; iter < maxIter; iter++ {
		x0, y0, err := r.ObserveHit(v1, v2)
		if err != nil {
			// Stepped off the board: halve back toward the best
			// known point.
			v1 = (v1 + bestV1) / 2
			v2 = (v2 + bestV2) / 2
			continue
		}
		miss := math.Hypot(x0-tx, y0-ty)
		if miss < bestErr {
			bestErr, bestV1, bestV2 = miss, v1, v2
		}
		if miss < r.SearchTol {
			return v1, v2, nil
		}

		x1, y1, err1 := r.ObserveHit(v1+probe, v2)
		x2, y2, err2 := r.ObserveHit(v1, v2+probe)
		if err1 != nil || err2 != nil {
			v1 = (v1 + bestV1) / 2
			v2 = (v2 + bestV2) / 2
			continue
		}
		// 2×2 Newton step on the observed board map, damped and
		// clamped against observation noise in the Jacobian.
		a, b := (x1-x0)/probe, (x2-x0)/probe
		c, d := (y1-y0)/probe, (y2-y0)/probe
		det := a*d - b*c
		if math.Abs(det) < 1e-4 {
			// Noise swamped the Jacobian; re-probe from here.
			continue
		}
		dx, dy := tx-x0, ty-y0
		s1 := (d*dx - b*dy) / det
		s2 := (-c*dx + a*dy) / det
		v1 += clampStep(s1, maxStep)
		v2 += clampStep(s2, maxStep)
	}
	if bestErr < 5*r.SearchTol {
		return bestV1, bestV2, nil
	}
	return 0, 0, ErrSearchFailed
}

func clampStep(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}

// GridTargets returns the 266 internal intersection points of the 20×15
// one-inch board grid, centered on the board origin (19 × 14 points).
func GridTargets() []geom.Vec3 {
	var pts []geom.Vec3
	const nx, ny = 19, 14
	for i := 0; i < nx; i++ {
		x := (float64(i) - float64(nx-1)/2) * Inch
		for j := 0; j < ny; j++ {
			y := (float64(j) - float64(ny-1)/2) * Inch
			pts = append(pts, geom.V(x, y, 0))
		}
	}
	return pts
}

// Collect runs the full §4.1(B) sample-gathering pass: the voltage search
// for every internal grid point. Points the search cannot reach are
// skipped (the prototype likewise used only points it could align on).
func (r *Rig) Collect() ([]Sample, error) {
	targets := GridTargets()
	samples := make([]Sample, 0, len(targets))
	for _, p := range targets {
		v1, v2, err := r.FindVoltages(p.X, p.Y)
		if err != nil {
			continue
		}
		samples = append(samples, Sample{X: p.X, Y: p.Y, V1: v1, V2: v2})
	}
	if len(samples) < len(targets)/2 {
		return samples, fmt.Errorf("kspace: only %d/%d grid points reachable", len(samples), len(targets))
	}
	return samples, nil
}
