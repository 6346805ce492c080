package cyclops

import (
	"strings"
	"testing"
)

func TestExtensionHandover(t *testing.T) {
	if testing.Short() {
		t.Skip("occlusion runs in -short mode")
	}
	r, err := ExtensionHandover(51)
	if err != nil {
		t.Fatal(err)
	}
	// The §3 claim: handover recovers most of the occluded time.
	if r.SingleTX.LightFraction > 0.65 {
		t.Errorf("baseline light fraction %.2f — occluder ineffective", r.SingleTX.LightFraction)
	}
	if r.TwoTX.LightFraction < r.SingleTX.LightFraction+0.25 {
		t.Errorf("handover light %.2f vs single-TX %.2f — no improvement",
			r.TwoTX.LightFraction, r.SingleTX.LightFraction)
	}
	// The LOS holdover carries every ≈1.8 ms switch, so the SFP never
	// re-locks; three switches out plus two failbacks (the last
	// occlusion runs to the end of the session).
	if r.TwoTX.UpFraction != 1 {
		t.Errorf("two-TX link up %.4f, want 1 (a switch paid the re-lock)", r.TwoTX.UpFraction)
	}
	if r.TwoTX.Handovers != 5 {
		t.Errorf("handovers = %d, want 5", r.TwoTX.Handovers)
	}
	if !strings.Contains(r.Render(), "handovers") {
		t.Error("render missing content")
	}
	t.Log("\n" + r.Render())
}

func TestBaselineMmWave(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrated run in -short mode")
	}
	r, err := BaselineMmWave(52)
	if err != nil {
		t.Fatal(err)
	}
	// The §1 story in numbers: Cyclops carries ≈2× the data under the
	// same motion, and raw 4K30 video fits it but not mmWave.
	if r.CyclopsGoodputGbps < 1.5*r.MmWaveGoodputGbps {
		t.Errorf("Cyclops %.2f Gbps not ≫ mmWave %.2f", r.CyclopsGoodputGbps, r.MmWaveGoodputGbps)
	}
	if r.MmWave4K30Delivered > 0.9 {
		t.Errorf("mmWave delivered %.0f%% of raw 4K30 — it should not fit 6 Gbps",
			r.MmWave4K30Delivered*100)
	}
	if r.Cyclops4K30Delivered < 0.9 {
		t.Errorf("Cyclops delivered only %.0f%% of raw 4K30", r.Cyclops4K30Delivered*100)
	}
	// mmWave's virtue is real too: it never drops under this motion.
	if r.MmWaveUpFraction < 0.999 {
		t.Errorf("mmWave up %.3f under gentle motion", r.MmWaveUpFraction)
	}
	t.Log("\n" + r.Render())
}

func TestEyeSafetyTable(t *testing.T) {
	out := EyeSafetyTable()
	if !strings.Contains(out, "CLASS 1") {
		t.Errorf("safety table: %s", out)
	}
	// All four standard designs present.
	if got := strings.Count(out, "\n"); got < 5 {
		t.Errorf("table too short:\n%s", out)
	}
}

func TestFutureWork40G(t *testing.T) {
	out := FutureWork40G()
	if !strings.Contains(out, "FAILS budget") {
		t.Error("standard collimator should fail some lanes")
	}
	if !strings.Contains(out, "4/4 lanes") {
		t.Error("custom collimator should close all lanes")
	}
	t.Log("\n" + out)
}
