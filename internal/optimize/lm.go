// Package optimize implements the non-linear optimization routines that the
// paper delegates to SciPy [57]: a Levenberg–Marquardt least-squares solver
// with a numeric Jacobian, and a Nelder–Mead simplex minimizer as a
// derivative-free fallback. Both calibration stages of Cyclops (§4.1 K-space
// fitting, §4.2 joint 12-parameter mapping) run on these.
//
// Everything is pure Go over float64 slices — no external linear-algebra
// dependency. The problem sizes are tiny (≤ 25 parameters, ≤ a few hundred
// residuals), so dense Gaussian elimination with partial pivoting is more
// than adequate.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"cyclops/internal/obs"
)

// ResidualFunc evaluates the residual vector for parameter vector x,
// writing len(out) residuals. The fitter minimizes ½·Σ out[i]².
type ResidualFunc func(x []float64, out []float64)

// LMOptions configures LeastSquares.
type LMOptions struct {
	// MaxIter bounds the number of LM iterations (default 200).
	MaxIter int
}

// The fixed Levenberg–Marquardt settings.
const (
	// lmTolFun stops when the relative reduction of the cost falls below
	// it.
	lmTolFun = 1e-12
	// lmTolX stops when the step norm relative to the parameter norm
	// falls below it.
	lmTolX = 1e-12
	// lmInitLambda is the initial damping factor.
	lmInitLambda = 1e-3
	// lmStep is the relative finite-difference step of the numeric
	// Jacobian.
	lmStep = 1e-7
)

// Result reports the outcome of a fit.
type Result struct {
	X          []float64 // best parameters found
	Cost       float64   // ½·Σ r²  at X
	RMSE       float64   // sqrt(Σ r² / m)
	Iterations int
	// FuncEvals counts residual/objective function evaluations — the
	// calibration cost metric (Jacobians dominate for LM).
	FuncEvals int
	Converged bool
	Reason    string // human-readable stop reason
}

// The solvers publish aggregate eval/fit counts to the process-default
// registry: calibration runs deep inside kspace/vrspace with no registry
// in scope, and the counts are integer-valued so concurrent fits still
// total exactly.
var (
	solverMetricsOnce sync.Once
	lmFits, lmEvals   *obs.Counter
	nmRuns, nmEvals   *obs.Counter
)

func solverMetrics() {
	solverMetricsOnce.Do(func() {
		r := obs.Default()
		lmFits = r.Counter("cyclops_optimize_lm_fits_total",
			"Levenberg-Marquardt fits run (both calibration stages).")
		lmEvals = r.Counter("cyclops_optimize_lm_evals_total",
			"Residual-function evaluations across all LM fits.")
		nmRuns = r.Counter("cyclops_optimize_nm_runs_total",
			"Nelder-Mead minimizations run.")
		nmEvals = r.Counter("cyclops_optimize_nm_evals_total",
			"Objective evaluations across all Nelder-Mead runs.")
	})
}

func (r Result) String() string {
	return fmt.Sprintf("optimize: cost=%.6g rmse=%.6g iters=%d converged=%v (%s)",
		r.Cost, r.RMSE, r.Iterations, r.Converged, r.Reason)
}

// ErrBadProblem is returned for malformed inputs (no parameters, no
// residuals, or a residual function that produces non-finite values at the
// starting point).
var ErrBadProblem = errors.New("optimize: malformed problem")

// LeastSquares minimizes ½·Σ f(x)² with Levenberg–Marquardt starting from
// x0, evaluating m residuals per call. x0 is not modified. The Jacobian
// takes forward differences of relative step lmStep; damping starts at
// lmInitLambda, and the fit converges once, with damping back at or below
// lmInitLambda, an accepted step cuts the cost by a relative lmTolFun or
// less, or moves x by a relative lmTolX or less.
func LeastSquares(f ResidualFunc, x0 []float64, m int, opts LMOptions) (Result, error) {
	solverMetrics()
	evals := 0
	counted := func(x, out []float64) { evals++; f(x, out) }
	res, err := leastSquares(counted, x0, m, opts)
	res.FuncEvals = evals
	lmFits.Inc()
	lmEvals.Add(float64(evals))
	return res, err
}

func leastSquares(f ResidualFunc, x0 []float64, m int, opts LMOptions) (Result, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	n := len(x0)
	if n == 0 || m == 0 {
		return Result{}, ErrBadProblem
	}

	x := append([]float64(nil), x0...)
	r := make([]float64, m)
	f(x, r)
	if !allFinite(r) {
		return Result{}, fmt.Errorf("%w: non-finite residuals at start", ErrBadProblem)
	}
	cost := half2(r)

	jac := newMat(m, n)
	jtj := newMat(n, n)
	a := newMat(n, n)
	g := make([]float64, n)
	step := make([]float64, n)
	xTrial := make([]float64, n)
	rTrial := make([]float64, m)
	rPerturb := make([]float64, m)

	lambda := lmInitLambda
	res := Result{X: x, Cost: cost}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iterations = iter

		// Numeric Jacobian by forward differences.
		for j := 0; j < n; j++ {
			h := lmStep * math.Max(math.Abs(x[j]), 1)
			saved := x[j]
			x[j] = saved + h
			f(x, rPerturb)
			x[j] = saved
			inv := 1 / h
			for i := 0; i < m; i++ {
				jac[i][j] = (rPerturb[i] - r[i]) * inv
			}
		}

		// JᵀJ and gradient Jᵀr.
		for j := 0; j < n; j++ {
			for k := j; k < n; k++ {
				var s float64
				for i := 0; i < m; i++ {
					s += jac[i][j] * jac[i][k]
				}
				jtj[j][k] = s
				jtj[k][j] = s
			}
			var s float64
			for i := 0; i < m; i++ {
				s += jac[i][j] * r[i]
			}
			g[j] = s
		}

		// Inner loop: grow lambda until a step reduces the cost.
		improved := false
		for tries := 0; tries < 30; tries++ {
			for j := 0; j < n; j++ {
				copy(a[j], jtj[j])
				// Marquardt scaling: damp by the diagonal so the
				// step respects per-parameter curvature.
				a[j][j] += lambda * math.Max(jtj[j][j], 1e-12)
				step[j] = -g[j]
			}
			if err := solveInPlace(a, step); err != nil {
				lambda *= 10
				continue
			}
			for j := 0; j < n; j++ {
				xTrial[j] = x[j] + step[j]
			}
			f(xTrial, rTrial)
			if !allFinite(rTrial) {
				lambda *= 10
				continue
			}
			trialCost := half2(rTrial)
			if trialCost < cost {
				// Accept.
				relRed := (cost - trialCost) / math.Max(cost, 1e-300)
				stepNorm := norm(step)
				xNorm := norm(x)
				copy(x, xTrial)
				copy(r, rTrial)
				cost = trialCost
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				// Declare convergence only when the trust region is
				// relaxed: a tiny step accepted under heavy damping
				// (large lambda) says nothing about being at a
				// minimum — the next iterations will expand the
				// region and keep descending.
				if lambda <= lmInitLambda {
					if relRed < lmTolFun {
						res.X, res.Cost = x, cost
						res.Converged = true
						res.Reason = "relative cost reduction below TolFun"
						res.RMSE = math.Sqrt(2 * cost / float64(m))
						return res, nil
					}
					if stepNorm < lmTolX*(xNorm+lmTolX) {
						res.X, res.Cost = x, cost
						res.Converged = true
						res.Reason = "step size below TolX"
						res.RMSE = math.Sqrt(2 * cost / float64(m))
						return res, nil
					}
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			res.X, res.Cost = x, cost
			res.Converged = true
			res.Reason = "no downhill step found (local minimum)"
			res.RMSE = math.Sqrt(2 * cost / float64(m))
			return res, nil
		}
	}

	res.X, res.Cost = x, cost
	res.Converged = false
	res.Reason = "max iterations reached"
	res.RMSE = math.Sqrt(2 * cost / float64(m))
	return res, nil
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func half2(r []float64) float64 {
	var s float64
	for _, v := range r {
		s += v * v
	}
	return s / 2
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func newMat(m, n int) [][]float64 {
	buf := make([]float64, m*n)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i], buf = buf[:n], buf[n:]
	}
	return rows
}

// solveInPlace solves a·x = b via Gaussian elimination with partial
// pivoting, overwriting a and b; on return b holds x.
func solveInPlace(a [][]float64, b []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(a[col][col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(a[row][col]); v > best {
				best, piv = v, row
			}
		}
		if best < 1e-300 {
			return errors.New("optimize: singular system")
		}
		if piv != col {
			a[piv], a[col] = a[col], a[piv]
			b[piv], b[col] = b[col], b[piv]
		}
		inv := 1 / a[col][col]
		for row := col + 1; row < n; row++ {
			factor := a[row][col] * inv
			if factor == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= factor * a[col][k]
			}
			b[row] -= factor * b[col]
		}
	}
	// Back substitution.
	for row := n - 1; row >= 0; row-- {
		s := b[row]
		for k := row + 1; k < n; k++ {
			s -= a[row][k] * b[k]
		}
		b[row] = s / a[row][row]
	}
	return nil
}
