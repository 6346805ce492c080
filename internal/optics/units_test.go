package optics

import (
	"math"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestDBmConversions(t *testing.T) {
	almost(t, DBmToMilliwatt(0), 1, 1e-12, "0 dBm")
	almost(t, DBmToMilliwatt(10), 10, 1e-9, "10 dBm")
	almost(t, DBmToMilliwatt(-30), 0.001, 1e-12, "-30 dBm")
}

func TestDBmRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-40, -25, -10, 0, 4, 15} {
		almost(t, 10*math.Log10(DBmToMilliwatt(dbm)), dbm, 1e-9, "roundtrip")
	}
}

func TestFractionDB(t *testing.T) {
	almost(t, FractionToDB(1), 0, 1e-12, "unity")
	almost(t, FractionToDB(0.1), 10, 1e-9, "10% loss")
	almost(t, FractionToDB(0.5), 3.0103, 1e-3, "half")
	if !math.IsInf(FractionToDB(0), 1) {
		t.Error("zero fraction should be +inf loss")
	}
	almost(t, math.Pow(10, -FractionToDB(0.037)/10), 0.037, 1e-12, "roundtrip")
}

func TestAngleUnits(t *testing.T) {
	almost(t, Mrad(5), 0.005, 1e-15, "Mrad")
	almost(t, ToMrad(0.005), 5, 1e-12, "ToMrad")
}

func TestLengthUnits(t *testing.T) {
	almost(t, MM(20), 0.020, 1e-15, "MM")
	almost(t, ToMM(0.016), 16, 1e-12, "ToMM")
}

// TestTransceiverLinkBudget: TxPower − Sensitivity, the total loss each
// link can absorb.
func TestTransceiverLinkBudget(t *testing.T) {
	budget := func(x Transceiver) float64 { return x.TxPowerDBm - x.SensitivityDBm }
	almost(t, budget(SFP10GZR), 25, 1e-9, "10G ZR budget")
	almost(t, budget(SFP28LR), 18, 1e-9, "SFP28 budget")
	// The paper's observation: the 25G parts have ~13 dB less budget
	// headroom than the 10G ZR parts (§5.3.1 says "about 13dB less").
	diff := budget(SFP10GZR) - budget(SFP28LR)
	if diff < 5 || diff > 15 {
		t.Errorf("budget gap 10G vs 25G = %v dB, want several dB", diff)
	}
}

func TestGalvoSpec(t *testing.T) {
	// GVS102 at 0.5 V/° → 2 mechanical degrees per volt → 4 optical
	// degrees per volt.
	almost(t, GVS102.VoltsPerDegree, 0.5, 0, "volts per degree")
	if GVS102.BeamAperture != MM(10) {
		t.Errorf("GVS102 aperture = %v", GVS102.BeamAperture)
	}
}

func TestDAQVoltageStep(t *testing.T) {
	// 16-bit over ±10 V → ~0.3 mV steps.
	step := USB1608G.VoltageStep()
	if step < 0.0002 || step > 0.0004 {
		t.Errorf("DAQ step = %v V, want ~0.3 mV", step)
	}
}
