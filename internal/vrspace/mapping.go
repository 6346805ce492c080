// Package vrspace implements the second calibration stage of §4.2: jointly
// learning the 12 "mapping parameters" — six rigid-transform parameters
// placing the TX GMA model in VR-space, and six placing the RX GMA model
// relative to the headset's hidden tracked point.
//
// Training data are 5-tuples (v1, v2, v3, v4, Ψ): the four voltages that an
// automated power-feedback search found to align the link, plus the VRH-T
// position report at that pose. The error function is Lemma 1's
// coincidence condition — at perfect alignment, each terminal's modeled
// beam must pass through the other terminal's modeled capture point.
package vrspace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/link"
	"cyclops/internal/optimize"
	"cyclops/internal/pointing"
	"cyclops/internal/vrh"
	"cyclops/internal/xrand"
)

// Tuple is one §4.2 training sample.
type Tuple struct {
	V   pointing.Voltages
	Psi geom.Pose
}

// Mapping holds the learned 12 parameters as two poses.
type Mapping struct {
	// MTX maps TX K-space into VR-space (fixed for a deployment).
	MTX geom.Pose
	// MRX maps RX K-space into the tracked-point frame; composed with a
	// live report Ψ it places the RX model in VR-space (footnote 8).
	MRX geom.Pose
}

// Vector flattens the mapping into the 12-parameter optimizer vector.
func (m Mapping) Vector() []float64 {
	a := m.MTX.Params6()
	b := m.MRX.Params6()
	return []float64{a[0], a[1], a[2], a[3], a[4], a[5], b[0], b[1], b[2], b[3], b[4], b[5]}
}

// MappingFromVector rebuilds a Mapping from a 12-vector.
func MappingFromVector(v []float64) (Mapping, error) {
	if len(v) != 12 {
		return Mapping{}, fmt.Errorf("vrspace: mapping vector has %d values, want 12", len(v))
	}
	return Mapping{
		MTX: geom.PoseFromParams6([6]float64{v[0], v[1], v[2], v[3], v[4], v[5]}),
		MRX: geom.PoseFromParams6([6]float64{v[6], v[7], v[8], v[9], v[10], v[11]}),
	}, nil
}

// TXModel places the stage-1 TX model into VR-space.
func (m Mapping) TXModel(kTX gma.Params) gma.Params {
	return kTX.Transformed(m.MTX)
}

// RXModel places the stage-1 RX model into VR-space for tracking report
// psi.
func (m Mapping) RXModel(kRX gma.Params, psi geom.Pose) gma.Params {
	return kRX.Transformed(psi.Compose(m.MRX))
}

// ErrNotEnoughTuples is returned when fewer than the minimum usable tuples
// are supplied (12 parameters need at least 6 tuples of 2 residuals; we
// require a safety factor).
var ErrNotEnoughTuples = errors.New("vrspace: not enough training tuples")

// FitMapping learns the 12 mapping parameters from aligned-link tuples by
// Levenberg–Marquardt on the coincidence error, starting from init (the
// installer's rough manual measurement of where things are).
func FitMapping(kTX, kRX gma.Params, tuples []Tuple, init Mapping) (Mapping, optimize.Result, error) {
	if len(tuples) < 10 {
		return Mapping{}, optimize.Result{}, fmt.Errorf("%w: have %d, want ≥10", ErrNotEnoughTuples, len(tuples))
	}

	residuals := func(x []float64, out []float64) {
		m, err := MappingFromVector(x)
		if err != nil {
			//cyclops:panic-ok impossible: the optimizer preserves the 12-parameter vector length
			panic(err)
		}
		// One TX compilation per candidate mapping covers every tuple;
		// the RX model moves with each tuple's report and is compiled
		// per tuple (still amortized over its two beam evaluations).
		gt := m.TXModel(kTX).Compile()
		for i, tp := range tuples {
			gr := m.RXModel(kRX, tp.Psi).Compile()
			bt, err1 := gt.Beam(tp.V.TX1, tp.V.TX2)
			br, err2 := gr.Beam(tp.V.RX1, tp.V.RX2)
			if err1 != nil || err2 != nil {
				out[2*i], out[2*i+1] = 1, 1
				continue
			}
			out[2*i] = bt.DistanceTo(br.Origin)
			out[2*i+1] = br.DistanceTo(bt.Origin)
		}
	}

	res, err := optimize.LeastSquares(residuals, init.Vector(), 2*len(tuples), optimize.LMOptions{
		MaxIter: 400,
	})
	if err != nil {
		return Mapping{}, res, err
	}
	m, err := MappingFromVector(res.X)
	return m, res, err
}

// CalibrationPoses returns n headset poses spread through the play volume
// for tuple collection: translations within ±0.25 m of the default pose
// and attitudes within ±12°, deterministic in seed. The spread matters —
// degenerate pose sets leave mapping directions unconstrained.
func CalibrationPoses(n int, seed int64) []geom.Pose {
	var rng xrand.Rand
	rng.Seed(seed)
	base := link.DefaultHeadsetPose()
	poses := make([]geom.Pose, 0, n)
	for i := 0; i < n; i++ {
		axis := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if axis.IsZero() {
			axis = geom.V(0, 1, 0)
		}
		rot := geom.QuatFromAxisAngle(axis, rng.NormFloat64()*0.12)
		trans := base.Trans.Add(geom.V(
			rng.Float64()*0.5-0.25,
			rng.Float64()*0.5-0.25,
			rng.Float64()*0.3-0.15,
		))
		poses = append(poses, geom.NewPose(rot.Mul(base.Rot), trans))
	}
	return poses
}

// CollectTuples runs the §4.2 data-gathering pass on the physical plant:
// for each pose, lock the headset there, read a tracking report, run the
// automated alignment search, and record the 5-tuple. Poses where the
// search fails are skipped.
func CollectTuples(p *link.Plant, tr *vrh.Tracker, poses []geom.Pose, rng interface{ NormFloat64() float64 }) []Tuple {
	var tuples []Tuple
	for i, pose := range poses {
		p.SetHeadset(pose)
		rep := tr.Report(pose, time.Duration(i)*time.Second)
		v, _, err := p.Align(rng)
		if err != nil {
			continue
		}
		tuples = append(tuples, Tuple{V: v, Psi: rep.Pose})
	}
	return tuples
}

// TrueMapping computes the oracle mapping from the plant's and tracker's
// hidden truths: M_tx = (world→VR) ∘ (TX K→world); M_rx = (tracked→headset)⁻¹
// ∘ (RX K→headset). Test/evaluation use only.
func TrueMapping(p *link.Plant, tr *vrh.Tracker) Mapping {
	return Mapping{
		MTX: tr.VRSpace().Compose(p.TXMountTruth()),
		MRX: tr.Offset().Inverse().Compose(p.RXMountTruth()),
	}
}

// InitialGuess perturbs the true mapping by installer-measurement error
// (a few centimeters, a few degrees) — the §4.2 analogue of the K-space
// stage's CAD prior.
func InitialGuess(p *link.Plant, tr *vrh.Tracker, rng interface{ NormFloat64() float64 }) Mapping {
	truth := TrueMapping(p, tr)
	perturb := func(m geom.Pose) geom.Pose {
		axis := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if axis.IsZero() {
			axis = geom.V(1, 0, 0)
		}
		d := geom.NewPose(
			geom.QuatFromAxisAngle(axis, rng.NormFloat64()*0.05),
			geom.V(rng.NormFloat64()*0.03, rng.NormFloat64()*0.03, rng.NormFloat64()*0.03),
		)
		return d.Compose(m)
	}
	return Mapping{MTX: perturb(truth.MTX), MRX: perturb(truth.MRX)}
}

// Evaluation is the Table 2 "combined" error set: how far each learned
// model's beam passes from the other terminal's true capture point, over
// held-out aligned poses.
type Evaluation struct {
	TXAvg, TXMax float64 // meters
	RXAvg, RXMax float64 // meters
	N            int
}

func (e Evaluation) String() string {
	return fmt.Sprintf("combined TX avg %.2f / max %.2f mm, RX avg %.2f / max %.2f mm (n=%d)",
		e.TXAvg*1e3, e.TXMax*1e3, e.RXAvg*1e3, e.RXMax*1e3, e.N)
}

// Evaluate measures combined (stage-1 + stage-2) model error on fresh
// poses. For each pose the plant is truly aligned (oracle voltages); the
// learned TX model's beam is compared against the true RX capture point
// and vice versa — the simulation analogue of the paper's physical
// measurement.
func Evaluate(p *link.Plant, tr *vrh.Tracker, kTX, kRX gma.Params, m Mapping, poses []geom.Pose) (Evaluation, error) {
	var e Evaluation
	for i, pose := range poses {
		p.SetHeadset(pose)
		rep := tr.Report(pose, time.Duration(i)*time.Second)
		v, err := p.OracleAlignedVoltages()
		if err != nil {
			continue
		}
		p.ApplyVoltages(v)

		// True beams from the plant's hidden geometry.
		btTrue, err1 := p.TXBeam()
		brTrue, err2 := p.RXReverseBeam()
		if err1 != nil || err2 != nil {
			continue
		}

		// Learned beams in VR-space; to compare against world-frame
		// truth, move them into the world via the tracker's hidden
		// frame (evaluation instrumentation only).
		vrToWorld := tr.VRSpace().Inverse()
		gt := m.TXModel(kTX)
		gr := m.RXModel(kRX, rep.Pose)
		btModel, err1 := gt.Beam(v.TX1, v.TX2)
		brModel, err2 := gr.Beam(v.RX1, v.RX2)
		if err1 != nil || err2 != nil {
			continue
		}
		btW := vrToWorld.ApplyRay(btModel)
		brW := vrToWorld.ApplyRay(brModel)

		txErr := btW.DistanceTo(brTrue.Origin)
		rxErr := brW.DistanceTo(btTrue.Origin)
		e.TXAvg += txErr
		e.RXAvg += rxErr
		e.TXMax = math.Max(e.TXMax, txErr)
		e.RXMax = math.Max(e.RXMax, rxErr)
		e.N++
	}
	if e.N == 0 {
		return e, errors.New("vrspace: no evaluable poses")
	}
	e.TXAvg /= float64(e.N)
	e.RXAvg /= float64(e.N)
	return e, nil
}
