// Package pointing implements the real-time half of Cyclops's TP mechanism
// (§4.3): the reverse GMA function G′ (target point → mirror voltages) and
// the pointing function P (VRH position → the four voltages that align the
// beam), both built purely on evaluations of learned GMA models — no
// additional training and no power feedback.
//
// The solvers run on compiled models (gma.Compiled): the per-report hot
// path compiles each model once and then every Beam evaluation inside the
// G′ and P iterations is allocation-free. The Params-based entry points
// remain as thin compiling wrappers for callers outside the hot path.
package pointing

import (
	"errors"
	"fmt"
	"math"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
)

// The §4.3 solver constants, shared by G′ and P.
const (
	// voltStep is the stop threshold on a voltage update: the paper stops
	// both iterations at the minimum GM voltage step, 0.3 mV (the
	// USB-1608G DAQ's step).
	voltStep = 0.3e-3
	// maxRounds bounds each iteration; the paper observes convergence in
	// 2–4 G′ rounds and 2–5 P rounds.
	maxRounds = 25
	// probeStep is G′'s voltage probe step for the local linear model, V.
	probeStep = 0.01
	// maxStep caps G′'s per-iteration voltage change, V: a trust region
	// that keeps a locally linear step from swinging the mirrors so far
	// that the modeled beam leaves its own assembly.
	maxStep = 3
	// voltLimit caps the absolute commandable voltage, V: slightly beyond
	// the DAQ's ±10 V so the iteration can overshoot and come back.
	voltLimit = 12
)

// ErrNoConverge is returned when an iteration exhausts maxRounds without
// the update falling below voltStep.
var ErrNoConverge = errors.New("pointing: iteration did not converge")

// ErrNonFiniteStart is returned when the starting voltages contain
// NaN/Inf. Like the optimize package's finiteness gate, the solvers
// refuse poisoned numerics at the door instead of propagating NaN into
// galvo commands.
var ErrNonFiniteStart = errors.New("pointing: non-finite start voltages")

// ErrNonFiniteTarget is returned when the G′ target point contains
// NaN/Inf — the downstream symptom of a non-finite tracking report.
var ErrNonFiniteTarget = errors.New("pointing: non-finite target point")

// errProbeParallel and errDegenerateBasis are prebuilt so the solver's
// failure branches stay allocation-free (they sit inside hot-path call
// trees; the transitive hotpath vet rule keeps them that way).
var (
	errProbeParallel   = errors.New("pointing: probe beam parallel to target plane")
	errDegenerateBasis = errors.New("pointing: degenerate steering basis")
)

// finite reports whether x is a usable number (mirrors the allFinite
// check in optimize/lm.go, scalar form).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// GPrime computes G′(τ) on an uncompiled model: it compiles and delegates
// to GPrimeCompiled. Hot loops should compile once and call
// GPrimeCompiled directly.
func GPrime(model gma.Params, tau geom.Vec3, v1, v2 float64) (float64, float64, int, error) {
	c := model.Compile()
	return GPrimeCompiled(&c, tau, v1, v2)
}

// GPrimeCompiled computes G′(τ): the voltages that make the model's output
// beam pass through the target point tau, starting from (v1, v2). It
// returns the voltages and the number of iterations used.
//
// Each step follows §4.3 exactly: evaluate G at (v1,v2), (v1+ε,v2),
// (v1,v2+ε); intersect the three beams with the plane P through τ
// perpendicular to the current beam; express the miss vector in the basis
// of the two per-ε beam displacements (ε = probeStep); and take the
// implied linear step, capped at maxStep and clamped to ±voltLimit. It
// stops when both steps fall below voltStep, or fails after maxRounds.
// The successful path performs zero heap allocations.
//
//cyclops:hotpath zero-alloc contract pinned by TestGPrimeCompiledZeroAllocs and make alloc-check
func GPrimeCompiled(model *gma.Compiled, tau geom.Vec3, v1, v2 float64) (float64, float64, int, error) {
	rv1, rv2, iters, _, err := gprime(model, tau, v1, v2)
	return rv1, rv2, iters, err
}

// gprime is the shared core; it additionally reports how many forward
// model evaluations (G calls) the solve consumed, which the P solver
// aggregates into the cyclops_pointing_beam_evals_total counter.
func gprime(model *gma.Compiled, tau geom.Vec3, v1, v2 float64) (float64, float64, int, int, error) {
	if !tau.Finite() {
		return v1, v2, 0, 0, ErrNonFiniteTarget
	}
	if !finite(v1) || !finite(v2) {
		return v1, v2, 0, 0, ErrNonFiniteStart
	}

	beamEvals := 0

	// Cold-start guard: Newton's local linearization is only trustworthy
	// when the beam already passes reasonably near the target. If the
	// starting beam misses by decimeters (a cold start in an arbitrarily
	// rotated VR frame), seed the iteration with a coarse scan of the
	// voltage grid — 81 model evaluations, microseconds. When the guard's
	// beam is good, it is exactly the b0 the first iteration would
	// recompute (Beam is a pure function), so it is reused instead of
	// thrown away — warm-start solves save one evaluation in three.
	var b0 geom.Ray
	haveB0 := false
	if b, err := model.Beam(v1, v2); err != nil || b.DistanceTo(tau) > 0.1 {
		cv1, cv2, evals, ok := coarseSeed(model, tau, voltLimit)
		beamEvals += 1 + evals
		if ok {
			v1, v2 = cv1, cv2
		}
	} else {
		beamEvals++
		b0, haveB0 = b, true
	}

	// SoA probe workspace: up to three voltage pairs per iteration
	// (current point, +ε on v1, +ε on v2) evaluated through a single
	// BeamBatch call, so the model loads are paid once per iteration
	// instead of once per evaluation. The arrays live on this frame —
	// BeamBatch only writes through the slices, so nothing escapes and
	// the solver's zero-allocation contract holds.
	var (
		pv1, pv2   [3]float64
		porg, pdir [3]geom.Vec3
		perr       [3]error
	)
	probes := gma.BeamBatchBuf{V2: pv2[:], Origin: porg[:], Dir: pdir[:], Err: perr[:]}

	var lastStep1, lastStep2 float64
	for iter := 1; iter <= maxRounds; iter++ {
		// Pack the iteration's probes: slot k is the first Jacobian
		// probe (b0 occupies slot 0 only when it must be recomputed).
		k := 0
		if !haveB0 {
			pv1[0], pv2[0] = v1, v2
			k = 1
		}
		pv1[k], pv2[k] = v1+probeStep, v2
		pv1[k+1], pv2[k+1] = v1, v2+probeStep
		probes.V1 = pv1[:k+2]
		model.BeamBatch(&probes)

		// Unwind the batch with the scalar path's exact accounting: an
		// evaluation the sequential code would never have reached (a
		// probe after an earlier error) is not counted, so the
		// cyclops_pointing_beam_evals_total stream is unchanged.
		if !haveB0 {
			beamEvals++
			if err := perr[0]; err != nil {
				// The last step carried the beam outside its own
				// assembly's geometry — back off half of it and retry.
				if lastStep1 != 0 || lastStep2 != 0 {
					v1 -= lastStep1 / 2
					v2 -= lastStep2 / 2
					lastStep1 /= 2
					lastStep2 /= 2
					continue
				}
				//cyclops:alloc-ok cold error return: wraps the beam-eval cause only when the solve fails
				return v1, v2, iter, beamEvals, fmt.Errorf("pointing: %w", err)
			}
			b0 = probes.Ray(0)
		}
		haveB0 = false
		beamEvals++
		if err := perr[k]; err != nil {
			//cyclops:alloc-ok cold error return: wraps the beam-eval cause only when the solve fails
			return v1, v2, iter, beamEvals, fmt.Errorf("pointing: %w", err)
		}
		b1 := probes.Ray(k)
		beamEvals++
		if err := perr[k+1]; err != nil {
			//cyclops:alloc-ok cold error return: wraps the beam-eval cause only when the solve fails
			return v1, v2, iter, beamEvals, fmt.Errorf("pointing: %w", err)
		}
		b2 := probes.Ray(k + 1)

		// Plane through τ perpendicular to the current beam direction.
		plane := geom.NewPlane(tau, b0.Dir)
		k0, _, err := plane.IntersectLine(b0)
		if err != nil {
			//cyclops:alloc-ok cold error return: wraps the intersection cause only when the solve fails
			return v1, v2, iter, beamEvals, fmt.Errorf("pointing: beam parallel to target plane: %w", err)
		}
		k1, _, err1 := plane.IntersectLine(b1)
		k2, _, err2 := plane.IntersectLine(b2)
		if err1 != nil || err2 != nil {
			return v1, v2, iter, beamEvals, errProbeParallel
		}

		// Per-ε displacement vectors on the plane, and the miss vector.
		u1 := k1.Sub(k0)
		u2 := k2.Sub(k0)
		miss := tau.Sub(k0)

		// Solve miss ≈ a·u1 + b·u2 in the least-squares sense (2×2
		// normal equations on the plane).
		g11 := u1.Dot(u1)
		g12 := u1.Dot(u2)
		g22 := u2.Dot(u2)
		det := g11*g22 - g12*g12
		if det <= 1e-30 {
			return v1, v2, iter, beamEvals, errDegenerateBasis
		}
		r1 := miss.Dot(u1)
		r2 := miss.Dot(u2)
		a := (g22*r1 - g12*r2) / det
		b := (g11*r2 - g12*r1) / det

		s1 := clampAbs(a*probeStep, maxStep)
		s2 := clampAbs(b*probeStep, maxStep)
		v1 = clampAbs(v1+s1, voltLimit)
		v2 = clampAbs(v2+s2, voltLimit)
		lastStep1, lastStep2 = s1, s2

		if abs(s1) < voltStep && abs(s2) < voltStep {
			return v1, v2, iter, beamEvals, nil
		}
	}
	return v1, v2, maxRounds, beamEvals, ErrNoConverge
}

func clampAbs(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}

// coarseSeed scans a 9×9 voltage grid over ±0.8·limit and returns the pair
// whose beam passes closest to tau (plus the number of model evaluations
// spent), or ok=false if no grid point produces a valid beam. The whole
// sweep is one BeamBatch call over stack-resident SoA buffers: the grid
// fill, the 81 evaluations, and the argmin scan are separated so the
// kernel loop carries no selection branches, while the scan visits the
// results in the exact row-major order the sequential loop compared them
// in (same best-so-far tie behavior, same floats). limit stays a runtime
// argument: 0.8·limit rounds to 9.600000000000001 in float64, while the
// constant expression 0.8·voltLimit would fold exactly to 9.6 and move
// every grid voltage.
func coarseSeed(model *gma.Compiled, tau geom.Vec3, limit float64) (float64, float64, int, bool) {
	const n = 9
	span := 0.8 * limit

	var (
		v1a, v2a   [n * n]float64
		orga, dira [n * n]geom.Vec3
		erra       [n * n]error
	)
	k := 0
	for i := 0; i < n; i++ {
		v1 := -span + 2*span*float64(i)/(n-1)
		for j := 0; j < n; j++ {
			v1a[k] = v1
			v2a[k] = -span + 2*span*float64(j)/(n-1)
			k++
		}
	}
	buf := gma.BeamBatchBuf{V1: v1a[:], V2: v2a[:], Origin: orga[:], Dir: dira[:], Err: erra[:]}
	model.BeamBatch(&buf)

	best1, best2 := 0.0, 0.0
	bestD := -1.0
	for k := 0; k < n*n; k++ {
		if erra[k] != nil {
			continue
		}
		d := buf.Ray(k).DistanceTo(tau)
		if bestD < 0 || d < bestD {
			bestD, best1, best2 = d, v1a[k], v2a[k]
		}
	}
	return best1, best2, n * n, bestD >= 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
