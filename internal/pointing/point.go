package pointing

import (
	"fmt"

	"cyclops/internal/gma"
	"cyclops/internal/obs"
)

// Voltages are the four GM drive values of the pointing function
// P(Ψ) = ⟨v_tx1, v_tx2, v_rx1, v_rx2⟩.
type Voltages struct {
	TX1, TX2 float64
	RX1, RX2 float64
}

// PointOptions tunes the pointing fixed-point iteration.
type PointOptions struct {
	// Tol is the stop threshold on the largest voltage change per round;
	// the paper uses the minimum GM voltage step (default 0.3 mV).
	Tol float64
	// MaxIter bounds the outer iteration (default 25; the paper observes
	// 2–5 rounds).
	MaxIter int
	// GPrime configures the inner G′ solves.
	GPrime GPrimeOptions
	// Metrics, when non-nil, receives per-solve observability: solve and
	// failure counts plus P / G′ iteration histograms.
	Metrics *Metrics
}

// Metrics holds the pointing solver's observability instruments. All
// fields are nil-safe, so a nil *Metrics (or one built from a nil
// registry) costs one branch per solve.
type Metrics struct {
	Solves      *obs.Counter
	Failures    *obs.Counter
	Iterations  *obs.Histogram // outer P rounds per solve
	GPrimeIters *obs.Histogram // total inner G′ iterations per solve
	BeamEvals   *obs.Counter   // forward model (G) evaluations
}

// NewMetrics registers the pointing instruments in reg (nil reg → nil
// metrics, all recording disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Solves: reg.Counter("cyclops_pointing_solves_total",
			"Pointing function P solves attempted."),
		Failures: reg.Counter("cyclops_pointing_failures_total",
			"P solves that stopped without converging."),
		Iterations: reg.Histogram("cyclops_pointing_iterations",
			"Outer fixed-point rounds per P solve (paper: 2-5).",
			[]float64{1, 2, 3, 4, 5, 6, 8, 10, 15, 25}),
		GPrimeIters: reg.Histogram("cyclops_pointing_gprime_iterations",
			"Total inner G' iterations per P solve, both terminals (paper: 2-4 per solve).",
			[]float64{2, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
		BeamEvals: reg.Counter("cyclops_pointing_beam_evals_total",
			"Forward GMA model (G) evaluations consumed by P solves."),
	}
}

func (m *Metrics) record(res Result, err error) {
	if m == nil {
		return
	}
	m.Solves.Inc()
	if err != nil {
		m.Failures.Inc()
	}
	m.Iterations.Observe(float64(res.Iterations))
	m.GPrimeIters.Observe(float64(res.GPrimeIterations))
	m.BeamEvals.Add(float64(res.BeamEvals))
}

func (o *PointOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 0.3e-3
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 25
	}
}

// Validate rejects option sets defaulting cannot repair: like
// GPrimeOptions.Validate, Tol must be a finite, non-negative voltage
// step (zero means default; NaN/Inf would silently break the fixed-point
// convergence test), and the embedded G′ options must validate too.
func (o PointOptions) Validate() error {
	if !finite(o.Tol) || o.Tol < 0 {
		//cyclops:alloc-ok cold validation failure: formats the poisoned Tol once, then the run aborts
		return fmt.Errorf("pointing: invalid PointOptions: Tol %v (want a finite, non-negative voltage step; 0 means default)", o.Tol)
	}
	return o.GPrime.Validate()
}

// Result reports a pointing solve.
type Result struct {
	V Voltages
	// Iterations is the number of outer fixed-point rounds.
	Iterations int
	// GPrimeIterations is the total inner G′ iterations across both
	// terminals and all rounds.
	GPrimeIterations int
	// BeamEvals is the total number of forward model (G) evaluations the
	// solve consumed, including coarse seeds and the final residual
	// check — the unit of work the paper's 1–2 ms TP budget is spent on.
	BeamEvals int
	// Residual is the final coincidence error d(p_t,τ_r)+d(p_r,τ_t)
	// implied by the models, meters.
	Residual float64
}

// Point computes P for one VRH position on uncompiled models: it compiles
// both and delegates to PointCompiled. Hot loops (the core engine calls P
// on every tracking report) should compile the models themselves — the TX
// model once per run, the RX model once per report — and call
// PointCompiled.
func Point(gt, gr gma.Params, start Voltages, opts PointOptions) (Result, error) {
	ct, cr := gt.Compile(), gr.Compile()
	return PointCompiled(&ct, &cr, start, opts)
}

// PointCompiled computes P for one VRH position: given the compiled
// TX-GMA and RX-GMA models expressed in a common frame (VR-space; the
// caller applies the learned §4.2 mappings and the current tracking
// report), find the four voltages that align the beam.
//
// It runs the §4.3 fixed-point loop over Lemma 1's coincidence condition:
// each terminal's beam origin is the other terminal's target, solved with
// G′, until the voltages stop moving.
//
//cyclops:hotpath zero-alloc contract pinned by TestPointCompiledZeroAllocs and make alloc-check
func PointCompiled(gt, gr *gma.Compiled, start Voltages, opts PointOptions) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{V: start}, err
	}
	opts.defaults()
	res, err := point(gt, gr, start, opts)
	opts.Metrics.record(res, err)
	return res, err
}

// Finite reports whether all four voltages are finite (no NaN/Inf).
func (v Voltages) Finite() bool {
	return finite(v.TX1) && finite(v.TX2) && finite(v.RX1) && finite(v.RX2)
}

func point(gt, gr *gma.Compiled, start Voltages, opts PointOptions) (Result, error) {
	v := start
	res := Result{V: v}

	// Refuse poisoned starts before any model evaluation: a NaN voltage
	// would otherwise survive the whole fixed-point loop (NaN compares
	// false against every tolerance) and reach the galvo DAQ unchecked.
	if !v.Finite() {
		return res, ErrNonFiniteStart
	}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iterations = iter

		bt, err := gt.Beam(v.TX1, v.TX2)
		res.BeamEvals++
		if err != nil {
			//cyclops:alloc-ok cold error return: wraps the model cause only when the solve fails
			return res, fmt.Errorf("pointing: TX model: %w", err)
		}
		br, err := gr.Beam(v.RX1, v.RX2)
		res.BeamEvals++
		if err != nil {
			//cyclops:alloc-ok cold error return: wraps the model cause only when the solve fails
			return res, fmt.Errorf("pointing: RX model: %w", err)
		}

		// Each origin becomes the other terminal's target point.
		nt1, nt2, it, et, err := gprime(gt, br.Origin, v.TX1, v.TX2, opts.GPrime)
		res.GPrimeIterations += it
		res.BeamEvals += et
		if err != nil {
			//cyclops:alloc-ok cold error return: wraps the solver cause only when the solve fails
			return res, fmt.Errorf("pointing: G'_T: %w", err)
		}
		nr1, nr2, ir, er, err := gprime(gr, bt.Origin, v.RX1, v.RX2, opts.GPrime)
		res.GPrimeIterations += ir
		res.BeamEvals += er
		if err != nil {
			//cyclops:alloc-ok cold error return: wraps the solver cause only when the solve fails
			return res, fmt.Errorf("pointing: G'_R: %w", err)
		}

		delta := max4(abs(nt1-v.TX1), abs(nt2-v.TX2), abs(nr1-v.RX1), abs(nr2-v.RX2))
		v = Voltages{TX1: nt1, TX2: nt2, RX1: nr1, RX2: nr2}
		if delta < opts.Tol {
			res.V = v
			res.Residual = coincidenceResidual(gt, gr, v)
			res.BeamEvals += 2
			return res, nil
		}
	}
	res.V = v
	res.Residual = coincidenceResidual(gt, gr, v)
	res.BeamEvals += 2
	return res, ErrNoConverge
}

// coincidenceResidual evaluates the Lemma 1 error d(p_t, τ_r) + d(p_r, τ_t)
// for the given models and voltages: each beam should pass through the
// other's origin.
func coincidenceResidual(gt, gr *gma.Compiled, v Voltages) float64 {
	bt, err1 := gt.Beam(v.TX1, v.TX2)
	br, err2 := gr.Beam(v.RX1, v.RX2)
	if err1 != nil || err2 != nil {
		return -1
	}
	// τ_r is where the RX (imaginary) beam meets the TX origin's
	// neighborhood and vice versa; measured as each beam's distance of
	// closest approach to the other's origin.
	return bt.DistanceTo(br.Origin) + br.DistanceTo(bt.Origin)
}

func max4(a, b, c, d float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}
