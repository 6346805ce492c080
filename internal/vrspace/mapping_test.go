package vrspace

import (
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/kspace"
	"cyclops/internal/link"
	"cyclops/internal/optics"
	"cyclops/internal/pointing"
	"cyclops/internal/vrh"
)

func TestMappingVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m := Mapping{
			MTX: geom.NewPose(
				geom.QuatFromAxisAngle(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()+0.1), rng.Float64()*2),
				geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			),
			MRX: geom.NewPose(
				geom.QuatFromAxisAngle(geom.V(1, 0.2, 0), rng.Float64()),
				geom.V(0.1, 0.2, 0.3),
			),
		}
		got, err := MappingFromVector(m.Vector())
		if err != nil {
			t.Fatal(err)
		}
		v := geom.V(0.3, -0.2, 0.9)
		if !got.MTX.Apply(v).NearlyEqual(m.MTX.Apply(v), 1e-7) {
			t.Fatal("MTX roundtrip changed transform")
		}
		if !got.MRX.Apply(v).NearlyEqual(m.MRX.Apply(v), 1e-7) {
			t.Fatal("MRX roundtrip changed transform")
		}
	}
}

func TestMappingFromVectorWrongLength(t *testing.T) {
	if _, err := MappingFromVector(make([]float64, 5)); err == nil {
		t.Error("short vector accepted")
	}
}

func TestFitMappingNotEnoughTuples(t *testing.T) {
	if _, _, err := FitMapping(gma.Nominal(), gma.Nominal(), make([]Tuple, 3), Mapping{}); err == nil {
		t.Error("3 tuples accepted")
	}
}

func TestCalibrationPosesSpread(t *testing.T) {
	poses := CalibrationPoses(30, 5)
	if len(poses) != 30 {
		t.Fatalf("got %d poses", len(poses))
	}
	// Orientation variety (needed to constrain M_rx rotation).
	var maxAng float64
	for _, p := range poses {
		for _, q := range poses {
			_, ang := p.Delta(q)
			maxAng = math.Max(maxAng, ang)
		}
	}
	if maxAng < 0.1 {
		t.Errorf("pose set orientation spread = %v rad — too degenerate to fit", maxAng)
	}
	// Determinism.
	again := CalibrationPoses(30, 5)
	if again[7] != poses[7] {
		t.Error("poses not deterministic in seed")
	}
}

func TestTrueMappingReproducesGeometry(t *testing.T) {
	// The oracle mapping must place the RX model exactly where the plant
	// does: Ψ∘M_rx ≡ (VR←world)∘headset∘rxMount for a noise-free report.
	p := link.NewPlant(optics.Diverging10G16mm, 11)
	p.FlexCoeff = 0 // ideally rigid for an exact chain comparison
	tr := vrh.New(12, vrh.WithNoise(0, 0), vrh.WithWarp(0, 0, 0))
	m := TrueMapping(p, tr)

	pose := CalibrationPoses(1, 3)[0]
	p.SetHeadset(pose)
	rep := tr.Report(pose, 0)

	// Through the mapping chain.
	viaMapping := rep.Pose.Compose(m.MRX)
	// Directly through the hidden truth.
	direct := tr.VRSpace().Compose(p.RXWorldPose())

	v := geom.V(0.1, -0.05, 0.2)
	if !viaMapping.Apply(v).NearlyEqual(direct.Apply(v), 1e-9) {
		t.Error("true mapping chain disagrees with hidden geometry")
	}
	// Same for TX.
	if !m.MTX.Apply(v).NearlyEqual(tr.VRSpace().Compose(p.TXMountTruth()).Apply(v), 1e-9) {
		t.Error("true TX mapping disagrees with hidden geometry")
	}
}

// TestEndToEndCalibration is the Table 2 reproduction: stage 1 on both
// GMAs, tuple collection with the automated alignment search, the joint
// 12-parameter fit, and combined-error evaluation on fresh poses.
func TestEndToEndCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full calibration in -short mode")
	}
	p := link.NewPlant(optics.Diverging10G16mm, 21)
	tr := vrh.New(22)
	rng := rand.New(rand.NewSource(23))

	// Stage 1 (pre-deployment, per §4.1, done per GMA by the
	// manufacturer).
	kTX, evTX, err := kspace.Calibrate(kspace.NewRig(p.TXDev, 24), gma.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	kRX, evRX, err := kspace.Calibrate(kspace.NewRig(p.RXDev, 25), gma.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// First-stage errors in the Table 2 regime (paper: 1.24 / 1.90 mm
	// averages, ≈5.4 mm maxima).
	for _, ev := range []kspace.Evaluation{evTX, evRX} {
		if ev.AvgError > 3e-3 {
			t.Errorf("stage-1 avg error %v m, want ≤3 mm", ev.AvgError)
		}
	}

	// Stage 2 (at deployment): ~30 aligned tuples (paper used ≈30).
	tuples := CollectTuples(p, tr, CalibrationPoses(30, 26), rng)
	if len(tuples) < 20 {
		t.Fatalf("only %d tuples collected", len(tuples))
	}
	init := InitialGuess(p, tr, rng)
	m, res, err := FitMapping(kTX, kRX, tuples, init)
	if err != nil {
		t.Fatalf("mapping fit: %v (%s)", err, res.Reason)
	}

	// Combined evaluation on fresh poses — the Table 2 "Combined" rows
	// (paper: TX 2.18 mm avg / 4.07 max; RX 4.54 avg / 6.50 max).
	eval, err := Evaluate(p, tr, kTX, kRX, m, CalibrationPoses(12, 27))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stage-1 TX: %v", evTX)
	t.Logf("stage-1 RX: %v", evRX)
	t.Logf("combined:   %v", eval)

	if eval.TXAvg > 6e-3 {
		t.Errorf("combined TX avg = %.2f mm, want ≲4 (paper 2.18)", eval.TXAvg*1e3)
	}
	if eval.RXAvg > 8e-3 {
		t.Errorf("combined RX avg = %.2f mm, want ≲6 (paper 4.54)", eval.RXAvg*1e3)
	}
	if eval.TXMax > 12e-3 || eval.RXMax > 15e-3 {
		t.Errorf("combined maxima too large: %v", eval)
	}

	// The calibrated system must actually point: run P on a fresh pose
	// and check the link comes up at near-peak power.
	pose := CalibrationPoses(1, 99)[0]
	p.SetHeadset(pose)
	rep := tr.Report(pose, 0)
	gt := m.TXModel(kTX)
	gr := m.RXModel(kRX, rep.Pose)
	pres, err := pointing.Point(gt, gr, pointing.Voltages{})
	if err != nil {
		t.Fatalf("pointing with learned models: %v", err)
	}
	p.ApplyVoltages(pres.V)
	got := p.ReceivedPowerDBm()
	peak := p.Config.PeakReceivedPowerDBm()
	// §5.2: TP-aligned power lands a few dB below peak (−13 to −14 dBm
	// vs −10 peak).
	if got < peak-8 {
		t.Errorf("TP-aligned power %.1f dBm, peak %.1f — model too inaccurate", got, peak)
	}
	if !p.Connected() {
		t.Error("TP-aligned link not connected")
	}
}

func TestCoincidenceErrorSensitive(t *testing.T) {
	p := link.NewPlant(optics.Diverging10G16mm, 31)
	tr := vrh.New(32, vrh.WithNoise(0, 0), vrh.WithWarp(0, 0, 0))
	truth := TrueMapping(p, tr)

	pose := link.DefaultHeadsetPose()
	p.SetHeadset(pose)
	rep := tr.Report(pose, 0)
	v, err := p.OracleAlignedVoltages()
	if err != nil {
		t.Fatal(err)
	}
	tuple := Tuple{V: v, Psi: rep.Pose}

	// With truth mapping and truth GMA models the coincidence error is
	// tiny (only servo noise / DAC quantization remains).
	e0, err := coincidenceError(truth, p.TXDev.Truth(), p.RXDev.Truth(), tuple)
	if err != nil {
		t.Fatal(err)
	}
	if e0 > 2e-3 {
		t.Errorf("truth coincidence error = %v m", e0)
	}
	// Perturbing the mapping inflates it.
	bad := truth
	bad.MTX = geom.NewPose(bad.MTX.Rot, bad.MTX.Trans.Add(geom.V(0.02, 0, 0)))
	e1, err := coincidenceError(bad, p.TXDev.Truth(), p.RXDev.Truth(), tuple)
	if err != nil {
		t.Fatal(err)
	}
	if e1 < 5*e0 {
		t.Errorf("perturbed mapping error %v not ≫ truth error %v", e1, e0)
	}
}

// coincidenceError evaluates the §4.2 error for one tuple under mapping
// m: d(p_t, τ_r) + d(p_r, τ_t), measured as each modeled beam's distance
// from the other's origin.
func coincidenceError(m Mapping, kTX, kRX gma.Params, t Tuple) (float64, error) {
	gt := m.TXModel(kTX)
	gr := m.RXModel(kRX, t.Psi)
	bt, err := gt.Beam(t.V.TX1, t.V.TX2)
	if err != nil {
		return 0, err
	}
	br, err := gr.Beam(t.V.RX1, t.V.RX2)
	if err != nil {
		return 0, err
	}
	return bt.DistanceTo(br.Origin) + br.DistanceTo(bt.Origin), nil
}
