package cyclops

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cyclops/internal/galvo"
	"cyclops/internal/geom"
	"cyclops/internal/kspace"
	"cyclops/internal/motion"
	"cyclops/internal/optimize"
	"cyclops/internal/parallel"
	"cyclops/internal/pointing"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// This file implements the ablations DESIGN.md calls out: each isolates
// one design decision of the paper and measures what happens without it.

// ---------------------------------------------- direct G′ (footnote 3) —

// DirectGPrimeResult compares learning the reverse function G′ directly
// from samples (a generic function approximator, no physical structure)
// against the paper's model-based approach.
type DirectGPrimeResult struct {
	TrainSamples int
	// SamePlaneErrorMM is the direct fit's error on the training plane.
	SamePlaneErrorMM float64
	// OffPlaneErrorMM is its error 0.5 m behind the training plane —
	// the depth generalization a VR deployment needs. Footnote 3: "even
	// several hundred training samples yielded an error of a few cms".
	OffPlaneErrorMM float64
	// ModelBasedOffPlaneErrorMM is the paper's approach on the same
	// off-plane targets.
	ModelBasedOffPlaneErrorMM float64
}

// AblationDirectGPrime fits a quadratic regression voltages = f(target)
// on one plane of grid samples and evaluates depth generalization,
// against the physically structured model learned from the same data.
func AblationDirectGPrime(seed int64) (DirectGPrimeResult, error) {
	dev := galvo.NewUnit(seed)
	rig := kspace.NewRig(dev, seed+1)
	samples, err := rig.Collect()
	if err != nil {
		return DirectGPrimeResult{}, err
	}
	var res DirectGPrimeResult
	res.TrainSamples = len(samples)

	// Direct approach: v1 and v2 each as quadratic polynomials in the
	// 2-D board target. (The direct learner has no access to depth — a
	// plane of aligned samples is all the deployment procedure yields.)
	design := func(x, y float64) []float64 {
		return []float64{1, x, y, x * x, y * y, x * y}
	}
	fitPoly := func(val func(kspace.Sample) float64) []float64 {
		f := func(p, out []float64) {
			for i, s := range samples {
				d := design(s.X, s.Y)
				var pred float64
				for j := range d {
					pred += p[j] * d[j]
				}
				out[i] = pred - val(s)
			}
		}
		r, err := optimize.LeastSquares(f, make([]float64, 6), len(samples), optimize.LMOptions{})
		if err != nil {
			return make([]float64, 6)
		}
		return r.X
	}
	p1 := fitPoly(func(s kspace.Sample) float64 { return s.V1 })
	p2 := fitPoly(func(s kspace.Sample) float64 { return s.V2 })
	evalPoly := func(p []float64, x, y float64) float64 {
		d := design(x, y)
		var v float64
		for j := range d {
			v += p[j] * d[j]
		}
		return v
	}

	// The model-based approach from the same samples.
	learned, _, err := kspace.Fit(samples, rig.Board(), dev.Truth())
	if err != nil {
		return res, err
	}

	// Evaluate both: command the *predicted* voltages on the real device
	// and measure how far the beam lands from the target, on the
	// training plane and half a meter deeper.
	evalOn := func(boardZ float64) (direct, model float64) {
		board := geom.NewPlane(geom.V(0, 0, boardZ), geom.V(0, 0, -1))
		n := 0
		for _, tgt := range kspace.GridTargets()[:60] {
			// Direct: the regression knows only (x, y); feed it the
			// target's transverse coordinates.
			v1 := evalPoly(p1, tgt.X, tgt.Y)
			v2 := evalPoly(p2, tgt.X, tgt.Y)
			beam, err := dev.Truth().Beam(v1, v2)
			if err != nil {
				continue
			}
			hit, _, err := board.Intersect(beam)
			if err != nil {
				continue
			}
			direct += math.Hypot(hit.X-tgt.X, hit.Y-tgt.Y)

			// Model-based: solve G′ for the true 3-D target.
			tau := geom.V(tgt.X, tgt.Y, boardZ)
			mv1, mv2, _, err := pointing.GPrime(learned, tau, 0, 0)
			if err != nil {
				continue
			}
			mbeam, err := dev.Truth().Beam(mv1, mv2)
			if err != nil {
				continue
			}
			mhit, _, err := board.Intersect(mbeam)
			if err != nil {
				continue
			}
			model += math.Hypot(mhit.X-tgt.X, mhit.Y-tgt.Y)
			n++
		}
		if n == 0 {
			return 0, 0
		}
		return direct / float64(n) * 1e3, model / float64(n) * 1e3
	}

	res.SamePlaneErrorMM, _ = evalOn(rig.BoardDistance)
	res.OffPlaneErrorMM, res.ModelBasedOffPlaneErrorMM = evalOn(rig.BoardDistance + 0.5)
	return res, nil
}

// Render prints the comparison.
func (r DirectGPrimeResult) Render() string {
	return fmt.Sprintf(`Ablation: direct G' learning vs model-based (footnote 3)
  training samples            %d
  direct fit, training plane  %6.1f mm
  direct fit, +0.5 m depth    %6.1f mm   <- "a few cms" failure mode
  model-based, +0.5 m depth   %6.1f mm
`, r.TrainSamples, r.SamePlaneErrorMM, r.OffPlaneErrorMM, r.ModelBasedOffPlaneErrorMM)
}

// ------------------------------------------- fixed beam origin ([32,33]) —

// FixedOriginResult compares the full distortion-aware GMA model against
// the simplification that the output beam origin p is a constant.
type FixedOriginResult struct {
	FullAvgMM  float64
	FixedAvgMM float64
}

// AblationFixedOrigin fits both models to the same grid samples and
// compares held-out board error (footnote 6: the origin's voltage
// dependence "results in distortion and needs to be considered for high
// accuracy").
func AblationFixedOrigin(seed int64) (FixedOriginResult, error) {
	dev := galvo.NewUnit(seed)
	rig := kspace.NewRig(dev, seed+1)
	samples, err := rig.Collect()
	if err != nil {
		return FixedOriginResult{}, err
	}
	var train, test []kspace.Sample
	for i, s := range samples {
		if i%3 == 2 {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}

	full, _, err := kspace.Fit(train, rig.Board(), dev.Truth())
	if err != nil {
		return FixedOriginResult{}, err
	}

	// Fixed-origin model: beam from constant point p0 with direction
	// given by two steering angles linear in the voltages:
	// dir = Rz(a1+g·v1)·Rx(a2+g·v2)·ẑ — 8 parameters.
	fixedEval := func(p []float64, v1, v2 float64) geom.Ray {
		origin := geom.V(p[0], p[1], p[2])
		yaw := p[3] + p[6]*v1
		pitch := p[4] + p[7]*v2
		_ = p[5]
		dir := geom.QuatFromEuler(yaw, pitch, 0).Rotate(geom.V(0, 0, 1))
		return geom.NewRay(origin, dir)
	}
	board := rig.Board()
	f := func(p, out []float64) {
		for i, s := range train {
			hit, _, err := board.Intersect(fixedEval(p, s.V1, s.V2))
			if err != nil {
				out[2*i], out[2*i+1] = 1, 1
				continue
			}
			out[2*i] = hit.X - s.X
			out[2*i+1] = hit.Y - s.Y
		}
	}
	init := []float64{0, 0.01, 0, 0, 0, 0, -2 * 0.0349, 2 * 0.0349}
	fit, err := optimize.LeastSquares(f, init, 2*len(train), optimize.LMOptions{MaxIter: 400})
	if err != nil {
		return FixedOriginResult{}, err
	}

	var res FixedOriginResult
	fullEval := kspace.Evaluate(full, board, test)
	res.FullAvgMM = fullEval.AvgError * 1e3
	var sum float64
	n := 0
	for _, s := range test {
		hit, _, err := board.Intersect(fixedEval(fit.X, s.V1, s.V2))
		if err != nil {
			continue
		}
		sum += math.Hypot(hit.X-s.X, hit.Y-s.Y)
		n++
	}
	if n > 0 {
		res.FixedAvgMM = sum / float64(n) * 1e3
	}
	return res, nil
}

// Render prints the comparison.
func (r FixedOriginResult) Render() string {
	return fmt.Sprintf(`Ablation: fixed-origin GMA model ([32,33]) vs full model (footnote 6)
  full model held-out error    %5.2f mm
  fixed-origin held-out error  %5.2f mm
`, r.FullAvgMM, r.FixedAvgMM)
}

// ------------------------------------------------ tracking rate (§6) —

// TrackingRatePoint is availability at one report interval.
type TrackingRatePoint struct {
	ReportInterval time.Duration
	MeanOnFraction float64
}

// AblationTrackingRate reruns the §5.4 availability model with faster and
// slower trackers — the §6 claim that "a custom VRH-T with much higher
// tracking frequency will improve Cyclops's performance significantly".
// Each interval's 500-trace resample + simulation is independent, so the
// sweep fans out across the default worker pool (results in interval
// order, identical to the serial sweep).
func AblationTrackingRate(seed int64, intervals []time.Duration) []TrackingRatePoint {
	src := TraceSource(seed)
	return parallel.Map(len(intervals), 0, func(k int) TrackingRatePoint {
		iv := intervals[k]
		// resampledSource re-times each trace as it streams — the corpus
		// is never materialized at either sampling rate.
		c, err := sim.RunCorpus(resampledSource{src: src, interval: iv}, sim.CorpusOptions{
			Params: sim.Paper25G(),
			// The interval sweep already fans out; keep each corpus run
			// serial so the two levels don't oversubscribe the pool.
			Workers: 1,
		})
		if err != nil {
			// A context-free clean corpus run has no error source.
			panic(err) //cyclops:panic-ok unreachable
		}
		return TrackingRatePoint{ReportInterval: iv, MeanOnFraction: c.MeanOnFraction}
	})
}

// resampledSource wraps a trace source, re-timing every trace to a fixed
// report interval on the fly.
type resampledSource struct {
	src      trace.Source
	interval time.Duration
}

func (r resampledSource) Len() int { return r.src.Len() }

func (r resampledSource) At(i int) trace.Trace {
	return resampleTrace(r.src.At(i), r.interval)
}

// resampleTrace re-times a trace's reports to the given interval by
// interpolation — simulating a tracker with a different update rate
// watching the same motion.
func resampleTrace(tr trace.Trace, interval time.Duration) trace.Trace {
	out := trace.Trace{ID: tr.ID}
	for at := time.Duration(0); at <= tr.Duration(); at += interval {
		out.Samples = append(out.Samples, trace.Sample{At: at, Pose: tr.PoseAt(at)})
	}
	return out
}

// RenderTrackingRate prints the sweep.
func RenderTrackingRate(points []TrackingRatePoint) string {
	var b strings.Builder
	b.WriteString("Ablation: availability vs tracking report interval (§6)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %6v : %.2f%% slots operational\n", p.ReportInterval, p.MeanOnFraction*100)
	}
	return b.String()
}

// --------------------------------------- coupling improvement (§5.3) —

// CouplingResult quantifies the §5.3 received-power observation: "with
// even a 7-13dB improvement in the coupling loss, the prototype would be
// able to support much higher movement speeds."
type CouplingResult struct {
	// Angular speed thresholds (rad/s) with the prototype coupling and
	// with coupling improved by ImprovementDB.
	BaselineAngular float64
	ImprovedAngular float64
	ImprovementDB   float64
}

// AblationCouplingImprovement runs the rotation-stage sweep on the
// standard 10G design and on a variant with 10 dB less coupling loss
// (custom capture optics), using oracle models to isolate the link budget
// effect.
func AblationCouplingImprovement(seed int64) (CouplingResult, error) {
	r := CouplingResult{ImprovementDB: 10}

	run := func(cfg LinkConfig) (float64, error) {
		sys := NewSystem(cfg, seed)
		sys.UseOracleModels()
		res, err := sys.Run(RunOptions{
			Program: RotationStage(0.30, 0.15, 0.08, 10),

			SampleEvery: 5 * time.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		return SpeedThreshold(res.Samples, AngSpeedOf, 0.05, 20), nil
	}

	var err error
	if r.BaselineAngular, err = run(Link10G); err != nil {
		return r, err
	}
	improved := Link10G
	improved.Name = "10G diverging, coupling +10dB"
	improved.BaseInsertionDB -= r.ImprovementDB
	if r.ImprovedAngular, err = run(improved); err != nil {
		return r, err
	}
	return r, nil
}

// Render prints the coupling comparison.
func (r CouplingResult) Render() string {
	deg := func(v float64) float64 { return v * 180 / math.Pi }
	return fmt.Sprintf(`Ablation: coupling-loss improvement (§5.3 received-power headroom)
  prototype coupling:    angular threshold ≈ %4.1f deg/s
  coupling %+.0f dB:       angular threshold ≈ %4.1f deg/s
  (the paper: -38 dBm at 100 deg/s implies 7-13 dB buys much higher speeds)
`, deg(r.BaselineAngular), r.ImprovementDB, deg(r.ImprovedAngular))
}

// ------------------------------------------------- beam choice (§5.1) —

// BeamChoiceResult compares collimated vs diverging designs end to end on
// identical motion.
type BeamChoiceResult struct {
	CollimatedUpFraction float64
	DivergingUpFraction  float64
}

// AblationBeamChoice runs the same hand-held motion on both designs with
// oracle models (isolating the optics choice from learning error). The
// motion intensity ramps to the Fig 3 "normal use" envelope (≈14 cm/s,
// ≈19 deg/s) — speeds the chosen design must survive.
func AblationBeamChoice(seed int64) (BeamChoiceResult, error) {
	prog := func() motion.Program {
		return HandHeld(0.14, 0.33, 20*time.Second, seed)
	}
	// The two designs share nothing (each job builds its own system and
	// its own program instance), so they run concurrently.
	configs := []LinkConfig{Link10GCollimated, Link10G}
	up, err := parallel.MapErr(len(configs), 0, func(i int) (float64, error) {
		sys := NewSystem(configs[i], seed)
		sys.UseOracleModels()
		res, err := sys.Run(RunOptions{Program: prog()})
		if err != nil {
			return 0, err
		}
		return res.UpFraction, nil
	})
	if err != nil {
		return BeamChoiceResult{}, err
	}
	return BeamChoiceResult{CollimatedUpFraction: up[0], DivergingUpFraction: up[1]}, nil
}

// Render prints the comparison.
func (r BeamChoiceResult) Render() string {
	return fmt.Sprintf(`Ablation: beam choice under identical motion (§5.1)
  collimated 20mm link up  %5.1f%% of run
  diverging 16mm link up   %5.1f%% of run
`, r.CollimatedUpFraction*100, r.DivergingUpFraction*100)
}
