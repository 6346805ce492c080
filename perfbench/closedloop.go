package main

import (
	"fmt"
	"math/rand"
	"time"

	"cyclops"
	"cyclops/internal/gma"
	"cyclops/internal/kspace"
	"cyclops/internal/link"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/pointing"
	"cyclops/internal/vrh"
	"cyclops/internal/vrspace"
)

// closedLoop is the Fig 14 configuration: a 10G system calibrated once
// (K-space, then VR-space; this is setup_s) and then tracked and pointed
// every 1 ms over a 60 s hand-held motion program. It is the only workload
// that reaches core, link, optics, pointing, vrh, kspace and vrspace.
// Faults stay off: under chaos the single-TX loop degrades within seconds
// and the run would mostly time an idle loop.
var closedLoop = workload{
	name:   "closed-loop",
	setup:  closedSetup,
	replay: closedReplay,
}

// closedTick and closedSampleEvery are Fig 14's loop step and sampling.
const (
	closedTick        = time.Millisecond
	closedSampleEvery = 5 * time.Millisecond
	speedWindow       = 50 * time.Millisecond
)

func closedProgram(sz size, seed int64) cyclops.Program {
	return cyclops.HandHeld(0.6, 0.7, sz.program, seed)
}

func closedSetup(sz size, seed int64) (pass, error) {
	sys := cyclops.NewSystem(cyclops.Link10G, seed)
	sys.Obs = obs.NewRegistry()
	lm, nm := optimizeEvals()
	if _, err := sys.Calibrate(); err != nil {
		return nil, err
	}
	lm1, nm1 := optimizeEvals()
	return func(int) (summary, error) {
		res, err := sys.Run(cyclops.RunOptions{Program: closedProgram(sz, seed), SampleEvery: closedSampleEvery})
		if err != nil {
			return nil, err
		}
		c := res.Metrics.Counters
		total := sys.Obs.Snapshot().Counters
		return closedSummary{
			KTX: sys.KTX, KRX: sys.KRX, Map: sys.Map,
			LMEvals: lm1 - lm, NMEvals: nm1 - nm,
			Ticks:          int(c["cyclops_run_ticks_total"]),
			UpTicks:        int(c["cyclops_run_up_ticks_total"]),
			Reports:        int(c["cyclops_run_reports_total"]),
			Solves:         int(c["cyclops_pointing_solves_total"]),
			Failures:       res.PointFailures,
			Iterations:     res.TotalPointIters,
			GPrimeIters:    res.TotalGPrimeIters,
			BeamEvals:      int(c["cyclops_pointing_beam_evals_total"]),
			Disconnections: res.Disconnections,
			PowerReads:     int(total["cyclops_link_power_reads_total"]),
			Packets:        int(c["cyclops_netem_packets_total"]),
			Samples:        res.Samples,
			Windows:        res.Windows,
		}, nil
	}, nil
}

// optimizeEvals reads the solver counters, which the optimize package
// keeps in the process registry only.
func optimizeEvals() (lm, nm float64) {
	c := obs.Default().Snapshot().Counters
	return c["cyclops_optimize_lm_evals_total"], c["cyclops_optimize_nm_evals_total"]
}

// closedSummary is a calibration plus one run: the learned models, the
// loop's counts and its full sample and throughput record.
type closedSummary struct {
	KTX, KRX gma.Params
	Map      vrspace.Mapping

	LMEvals, NMEvals float64

	Ticks, UpTicks, Reports   int
	Solves, Failures          int
	Iterations, GPrimeIters   int
	BeamEvals, Disconnections int
	PowerReads, Packets       int
	Samples                   []cyclops.Sample
	Windows                   []netem.Window
}

func (s closedSummary) check(sz size) error {
	// The loop runs the closed interval [0, program].
	if want := int(sz.program/closedTick) + 1; s.Ticks != want {
		return fmt.Errorf("core.ticks = %d, want %d", s.Ticks, want)
	}
	if s.UpTicks < 0 || s.UpTicks > s.Ticks {
		return fmt.Errorf("%d up ticks outside [0, %d]", s.UpTicks, s.Ticks)
	}
	if s.Reports == 0 || s.Failures > s.Reports {
		return fmt.Errorf("%d pointing failures over %d reports", s.Failures, s.Reports)
	}
	if want := int(sz.program/closedSampleEvery) + 1; len(s.Samples) != want {
		return fmt.Errorf("%d samples, want %d", len(s.Samples), want)
	}
	return nil
}

// modelled reports optical availability: the share of samples whose
// received power clears the receiver's sensitivity, the closed loop's
// analogue of the slot model's on-fraction. The SFP's own up fraction is
// the per-layer link.up_pct: one or two losses of signal in a 60 s program
// hold the link down through 10-40 s of re-lock, so across seeds it spreads
// by a quarter of its median. Goodput is the 10G link's goodput while
// aligned, as Fig 16's effective bandwidth is for the corpus.
func (s closedSummary) modelled() modelled {
	ok := 0
	for _, smp := range s.Samples {
		if smp.PowerOK {
			ok++
		}
	}
	avail := float64(ok) / float64(len(s.Samples))
	return modelled{
		work:            1,
		simSeconds:      float64(s.Ticks-1) * closedTick.Seconds(),
		availabilityPct: avail * 100,
		goodputGbps:     avail * cyclops.Link10G.Transceiver.OptimalGoodputGbps,
	}
}

func (s closedSummary) counts() map[string]float64 {
	return map[string]float64{
		"core.ticks":          float64(s.Ticks),
		"core.reports":        float64(s.Reports),
		"core.disconnections": float64(s.Disconnections),
		"link.up_pct":         float64(s.UpTicks) / float64(s.Ticks) * 100,
		"pointing.solves":     float64(s.Solves),
		"pointing.failures":   float64(s.Failures),
		"pointing.beam_evals": float64(s.BeamEvals),
		"pointing.iterations": float64(s.Iterations),
		"link.power_reads":    float64(s.PowerReads),
		"netem.packets":       float64(s.Packets),
		"optimize.lm_evals":   s.LMEvals,
		"optimize.nm_evals":   s.NMEvals,
	}
}

// closedReplay rebuilds System.Calibrate and the fault-free System.Run
// from the layers' public calls, timing each: the two K-space
// calibrations, tuple collection, the mapping fit and its evaluation,
// then per tick the motion program, tracker reports, the RX model compile,
// the P solve, the plant's received power, the link monitor and the netem
// stream. core.loop is what the run loop spends outside those calls.
func closedReplay(sz size, seed int64, sp *spans) (summary, map[string]float64, error) {
	sys := cyclops.NewSystem(cyclops.Link10G, seed)
	reg := obs.NewRegistry()
	plant, tracker := sys.Plant, sys.Tracker
	plant.Metrics = link.NewPlantMetrics(reg)

	// Calibrate, in System.Calibrate's order and with its seeds.
	lm0, nm0 := optimizeEvals()
	rng := rand.New(rand.NewSource(seed + 2))
	t := time.Now()
	kTX, _, err := kspace.Calibrate(kspace.NewRig(plant.TXDev, seed+3), gma.Nominal())
	sp.end(spKspaceCalibrate, t)
	if err != nil {
		return nil, nil, fmt.Errorf("TX stage 1: %w", err)
	}
	t = time.Now()
	kRX, _, err := kspace.Calibrate(kspace.NewRig(plant.RXDev, seed+4), gma.Nominal())
	sp.end(spKspaceCalibrate, t)
	if err != nil {
		return nil, nil, fmt.Errorf("RX stage 1: %w", err)
	}
	t = time.Now()
	tuples := vrspace.CollectTuples(plant, tracker, vrspace.CalibrationPoses(30, seed+5), rng)
	sp.end(spVRSpaceCollect, t)
	t = time.Now()
	m, _, err := vrspace.FitMapping(kTX, kRX, tuples, vrspace.InitialGuess(plant, tracker, rng))
	sp.end(spVRSpaceFit, t)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping fit: %w", err)
	}
	t = time.Now()
	_, err = vrspace.Evaluate(plant, tracker, kTX, kRX, m, vrspace.CalibrationPoses(12, seed+6))
	sp.end(spVRSpaceEvaluate, t)
	if err != nil {
		return nil, nil, fmt.Errorf("evaluation: %w", err)
	}
	lm1, nm1 := optimizeEvals()
	gt := m.TXModel(kTX).Compile()
	// Park at the default pose and align, as Calibrate does.
	plant.SetHeadset(link.DefaultHeadsetPose())
	if _, err := pointOnce(plant, tracker, &gt, kRX, m, plant.CurrentVoltages(), 0); err != nil {
		return nil, nil, fmt.Errorf("initial pointing: %w", err)
	}

	// Run: the fault-free, ungated, single-TX path of System.Run.
	prog := closedProgram(sz, seed)
	dur := prog.Duration()
	mon := link.NewMonitor(plant.Config.Transceiver)
	mon.Metrics = link.NewMonitorMetrics(reg)
	stream := netem.NewStream()
	stream.Metrics = netem.NewStreamMetrics(reg)
	popts := pointing.PointOptions{Metrics: pointing.NewMetrics(reg)}
	lineRate := plant.Config.Transceiver.OptimalGoodputGbps
	sensitivity := plant.Config.Transceiver.SensitivityDBm
	latency := 1500*time.Microsecond + plant.TXDev.Spec().StepLatency

	runStart := time.Now()
	before := sp.busy
	plant.SetHeadset(prog.Pose(0))
	first, err := pointOnce(plant, tracker, &gt, kRX, m, plant.CurrentVoltages(), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("initial alignment: %w", err)
	}
	s := closedSummary{KTX: kTX, KRX: kRX, Map: m, LMEvals: lm1 - lm0, NMEvals: nm1 - nm0}
	s.Samples = make([]cyclops.Sample, 0, dur/closedSampleEvery+1)
	lastV, pendingV := first.V, first.V
	pendingAt := time.Duration(-1)
	nextReport := tracker.NextInterval()
	var nextSample time.Duration
	var recent []vrh.Report
	wasUp := true
	for at := time.Duration(0); at <= dur; at += closedTick {
		t = time.Now()
		pose := prog.Pose(at)
		sp.end(spMotionPose, t)
		plant.SetHeadset(pose)

		if pendingAt >= 0 && at >= pendingAt {
			plant.ApplyVoltages(pendingV)
			lastV, pendingAt = pendingV, -1
		}

		if at >= nextReport {
			t = time.Now()
			rep := tracker.Report(plant.Headset(), at)
			sp.end(spVRHReport, t)
			recent = append(recent, rep)
			for len(recent) > 1 && rep.At-recent[0].At > speedWindow {
				recent = recent[1:]
			}
			warmV := lastV
			if pendingAt >= 0 {
				warmV = pendingV
			}
			s.Reports++
			if !rep.Pose.Finite() {
				s.Failures++
			} else {
				t = time.Now()
				gr := m.RXModel(kRX, rep.Pose).Compile()
				sp.end(spGMACompile, t)
				t = time.Now()
				res, err := pointing.PointCompiled(&gt, &gr, warmV, popts)
				sp.end(spPointingSolve, t)
				s.Solves++
				if err != nil {
					s.Failures++
				} else {
					s.Iterations += res.Iterations
					s.GPrimeIters += res.GPrimeIterations
					pendingV, pendingAt = res.V, at+latency
				}
			}
			nextReport = at + tracker.NextInterval()
		}

		t = time.Now()
		power := plant.ReceivedPowerDBm()
		sp.end(spLinkPower, t)
		t = time.Now()
		up := mon.Observe(at, power)
		sp.end(spLinkMonitor, t)
		if wasUp && !up {
			s.Disconnections++
		}
		wasUp = up
		if up {
			s.UpTicks++
		}
		s.Ticks++
		t = time.Now()
		stream.Tick(at, closedTick, up, lineRate)
		sp.end(spNetemTick, t)

		if at >= nextSample {
			var lin, ang float64
			if len(recent) >= 2 {
				lin, ang = vrh.Speeds(recent[0], recent[len(recent)-1])
			}
			s.Samples = append(s.Samples, cyclops.Sample{
				At: at, PowerDBm: power, Up: up, PowerOK: power >= sensitivity,
				LinSpeed: lin, AngSpeed: ang,
			})
			nextSample = at + closedSampleEvery
		}
	}
	t = time.Now()
	s.Windows = stream.Finish()
	sp.end(spNetemTick, t)
	var inSpans time.Duration
	for k := span(0); k < nSpans; k++ {
		inSpans += sp.busy[k] - before[k]
	}
	sp.busy[spCoreLoop] += time.Since(runStart) - inSpans
	sp.calls[spCoreLoop] += int64(s.Ticks)

	c := reg.Snapshot().Counters
	s.BeamEvals = int(c["cyclops_pointing_beam_evals_total"])
	s.PowerReads = int(c["cyclops_link_power_reads_total"])
	s.Packets = int(c["cyclops_netem_packets_total"])
	return s, nil, nil
}

// pointOnce is System.PointNow on explicit models: take a report, solve P
// from start without solver metrics, and apply the result.
func pointOnce(plant *link.Plant, tracker *vrh.Tracker, gt *gma.Compiled, kRX gma.Params, m vrspace.Mapping,
	start pointing.Voltages, at time.Duration) (pointing.Result, error) {
	rep := tracker.Report(plant.Headset(), at)
	gr := m.RXModel(kRX, rep.Pose).Compile()
	res, err := pointing.PointCompiled(gt, &gr, start, pointing.PointOptions{})
	if err != nil {
		return res, err
	}
	plant.ApplyVoltages(res.V)
	return res, nil
}
