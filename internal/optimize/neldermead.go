package optimize

import (
	"math"
	"sort"
)

// ObjectiveFunc evaluates a scalar cost for parameter vector x.
type ObjectiveFunc func(x []float64) float64

// NMOptions configures NelderMead.
type NMOptions struct {
	// MaxIter bounds the number of simplex iterations (default 2000).
	MaxIter int
	// TolF stops when the spread of simplex costs falls below this
	// (default 1e-12).
	TolF float64
	// TolX stops when the simplex diameter falls below this
	// (default 1e-10).
	TolX float64
	// InitStep sets the initial simplex edge length per dimension
	// (default 0.1 relative to the start point, floor 0.01).
	InitStep float64
}

func (o *NMOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.TolF <= 0 {
		o.TolF = 1e-12
	}
	if o.TolX <= 0 {
		o.TolX = 1e-10
	}
	if o.InitStep <= 0 {
		o.InitStep = 0.1
	}
}

// NelderMead minimizes f starting from x0 with the downhill simplex method
// (standard α=1, γ=2, ρ=0.5, σ=0.5 coefficients). It needs no derivatives,
// which makes it the right tool for objectives that are only piecewise
// smooth — e.g. received optical power as a function of galvo voltages,
// which plateaus at zero outside the capture cone.
func NelderMead(f ObjectiveFunc, x0 []float64, opts NMOptions) Result {
	solverMetrics()
	evals := 0
	counted := func(x []float64) float64 { evals++; return f(x) }
	res := nelderMead(counted, x0, opts)
	res.FuncEvals = evals
	nmRuns.Inc()
	nmEvals.Add(float64(evals))
	return res
}

func nelderMead(f ObjectiveFunc, x0 []float64, opts NMOptions) Result {
	opts.defaults()
	n := len(x0)
	if n == 0 {
		return Result{Reason: "empty parameter vector"}
	}

	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...)}
	simplex[0].f = f(simplex[0].x)
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		h := opts.InitStep * math.Max(math.Abs(x[i-1]), 0.1)
		x[i-1] += h
		simplex[i] = vertex{x: x, f: f(x)}
	}

	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)

	var iters int
	reason := "max iterations reached"
	for iters = 1; iters <= opts.MaxIter; iters++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		best, worst := simplex[0], simplex[n]

		// Convergence checks.
		if math.Abs(worst.f-best.f) <= opts.TolF*(math.Abs(best.f)+opts.TolF) {
			reason = "cost spread below TolF"
			break
		}
		var diam float64
		for i := 1; i <= n; i++ {
			var d float64
			for j := 0; j < n; j++ {
				dd := simplex[i].x[j] - simplex[0].x[j]
				d += dd * dd
			}
			diam = math.Max(diam, math.Sqrt(d))
		}
		if diam <= opts.TolX {
			reason = "simplex diameter below TolX"
			break
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += simplex[i].x[j]
			}
			centroid[j] = s / float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			xr[j] = centroid[j] + (centroid[j] - worst.x[j])
		}
		fr := f(xr)
		switch {
		case fr < best.f:
			// Expansion.
			for j := 0; j < n; j++ {
				xe[j] = centroid[j] + 2*(centroid[j]-worst.x[j])
			}
			fe := f(xe)
			if fe < fr {
				copy(simplex[n].x, xe)
				simplex[n].f = fe
			} else {
				copy(simplex[n].x, xr)
				simplex[n].f = fr
			}
		case fr < simplex[n-1].f:
			copy(simplex[n].x, xr)
			simplex[n].f = fr
		default:
			// Contraction (outside if reflection helped a bit, else inside).
			if fr < worst.f {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + 0.5*(xr[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + 0.5*(worst.x[j]-centroid[j])
				}
			}
			fc := f(xc)
			if fc < math.Min(fr, worst.f) {
				copy(simplex[n].x, xc)
				simplex[n].f = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + 0.5*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}

	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return Result{
		X:          simplex[0].x,
		Cost:       simplex[0].f,
		Iterations: iters,
		Converged:  reason != "max iterations reached",
		Reason:     reason,
	}
}

// Bisect finds x in [lo, hi] where pred flips from true to false, assuming
// pred(lo) is true. It returns the largest x (within tol) for which pred
// holds. This is the root-finder behind "maximum angular movement for which
// the link stays connected".
func Bisect(pred func(float64) bool, lo, hi, tol float64) float64 {
	if !pred(lo) {
		return lo
	}
	if pred(hi) {
		return hi
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
