// Package core assembles the full Cyclops system — physical plant, headset
// tracker, two-stage learned models, real-time pointing controller, link
// monitor, and traffic — and runs the experiment loop all evaluations
// share: move the headset along a motion program at millisecond
// resolution, realign on every tracking report, and record power,
// throughput, and speed.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"cyclops/internal/gma"
	"cyclops/internal/kspace"
	"cyclops/internal/link"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/pointing"
	"cyclops/internal/vrh"
	"cyclops/internal/vrspace"
)

// System is one deployed Cyclops installation.
type System struct {
	Plant   *link.Plant
	Tracker *vrh.Tracker

	// KTX and KRX are the stage-1 learned GMA models; Map holds the
	// stage-2 learned 12 mapping parameters.
	KTX, KRX gma.Params
	Map      vrspace.Mapping

	// Obs, when non-nil, receives observability from Calibrate and from
	// every Run that does not set its own RunOptions.Metrics. Nil sends
	// the same data to obs.Default() instead.
	Obs *obs.Registry

	calibrated bool
	seed       int64
}

// NewSystem builds a system around the given link design. All hidden
// variation (device geometry, mounts, tracker frames) derives from seed.
func NewSystem(cfg optics.LinkConfig, seed int64) *System {
	return &System{
		Plant:   link.NewPlant(cfg, seed),
		Tracker: vrh.New(seed + 1),
		seed:    seed,
	}
}

// CalibrationReport summarizes the full §4 training pipeline — the data
// behind Table 2.
type CalibrationReport struct {
	Stage1TX kspace.Evaluation
	Stage1RX kspace.Evaluation
	Combined vrspace.Evaluation
	Tuples   int
}

func (r CalibrationReport) String() string {
	return fmt.Sprintf("stage1 TX[%v] RX[%v]; combined[%v]; %d tuples",
		r.Stage1TX, r.Stage1RX, r.Combined, r.Tuples)
}

// Calibrate runs the complete two-stage training: K-space grid calibration
// of both GMAs (§4.1), aligned-tuple collection and the joint 12-parameter
// mapping fit (§4.2), then a combined-error evaluation on fresh poses.
// The headset is left at the default pose with the link aligned by the
// learned pointing function.
func (s *System) Calibrate() (CalibrationReport, error) {
	var rep CalibrationReport
	rng := rand.New(rand.NewSource(s.seed + 2))

	// Same registry resolution as Run: System.Obs or a private registry
	// whose contribution is published to the process default. Plant power
	// reads during tuple collection land here too.
	reg := s.Obs
	publish := reg == nil
	if publish {
		reg = obs.NewRegistry()
	}
	startSnap := reg.Snapshot()
	prevPlantMetrics := s.Plant.Metrics
	s.Plant.Metrics = link.NewPlantMetrics(reg)
	defer func() {
		s.Plant.Metrics = prevPlantMetrics
		if publish {
			obs.Default().Merge(reg.Snapshot().Diff(startSnap))
		}
	}()

	kTX, evTX, err := kspace.Calibrate(kspace.NewRig(s.Plant.TXDev, s.seed+3), gma.Nominal())
	if err != nil {
		return rep, fmt.Errorf("core: TX stage 1: %w", err)
	}
	kRX, evRX, err := kspace.Calibrate(kspace.NewRig(s.Plant.RXDev, s.seed+4), gma.Nominal())
	if err != nil {
		return rep, fmt.Errorf("core: RX stage 1: %w", err)
	}
	s.KTX, s.KRX = kTX, kRX
	rep.Stage1TX, rep.Stage1RX = evTX, evRX

	tuples := vrspace.CollectTuples(s.Plant, s.Tracker, vrspace.CalibrationPoses(30, s.seed+5), rng)
	rep.Tuples = len(tuples)
	m, _, err := vrspace.FitMapping(kTX, kRX, tuples, vrspace.InitialGuess(s.Plant, s.Tracker, rng))
	if err != nil {
		return rep, fmt.Errorf("core: mapping fit: %w", err)
	}
	s.Map = m

	rep.Combined, err = vrspace.Evaluate(s.Plant, s.Tracker, kTX, kRX, m, vrspace.CalibrationPoses(12, s.seed+6))
	if err != nil {
		return rep, fmt.Errorf("core: evaluation: %w", err)
	}
	s.calibrated = true

	// Park the headset at the default pose and align with the learned
	// models so a Run can start from a connected link.
	s.Plant.SetHeadset(link.DefaultHeadsetPose())
	if _, err := s.PointNow(0, pointing.Voltages{}); err != nil {
		return rep, fmt.Errorf("core: initial pointing: %w", err)
	}
	reg.Counter("cyclops_calibrations_total",
		"Full two-stage calibrations completed.").Inc()
	reg.Counter("cyclops_calibration_tuples_total",
		"Aligned mapping tuples collected during stage-2 calibration.").Add(float64(rep.Tuples))
	return rep, nil
}

// UseOracleModels configures the system with the hidden ground truth
// instead of learned models: perfect stage-1 GMAs and the true mapping.
// This is the "perfect TP" baseline used to separate learning error from
// link physics in the ablation benches, and a fast path for tests that do
// not exercise calibration itself.
func (s *System) UseOracleModels() {
	s.KTX = s.Plant.TXDev.Truth()
	s.KRX = s.Plant.RXDev.Truth()
	s.Map = vrspace.TrueMapping(s.Plant, s.Tracker)
	s.calibrated = true
	s.Plant.SetHeadset(link.DefaultHeadsetPose())
	//cyclops:discard-ok best-effort pre-alignment; Run re-points on its first tick and handles the error there
	_, _ = s.PointNow(0, pointing.Voltages{})
}

// Calibrated reports whether models are in place.
//
//cyclops:keep public API through cyclops.System
func (s *System) Calibrated() bool { return s.calibrated }

// PointNow takes a fresh tracking report at simulation time at, solves the
// pointing function P from the given starting voltages, and applies the
// result to the hardware. It returns the pointing result.
func (s *System) PointNow(at time.Duration, start pointing.Voltages) (pointing.Result, error) {
	if !s.calibrated {
		return pointing.Result{}, fmt.Errorf("core: system not calibrated")
	}
	rep := s.Tracker.Report(s.Plant.Headset(), at)
	gt := s.Map.TXModel(s.KTX).Compile()
	gr := s.Map.RXModel(s.KRX, rep.Pose).Compile()
	res, err := pointing.PointCompiled(&gt, &gr, start, pointing.PointOptions{})
	if err != nil {
		return res, err
	}
	s.Plant.ApplyVoltages(res.V)
	return res, nil
}
