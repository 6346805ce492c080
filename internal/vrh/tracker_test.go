package vrh

import (
	"math"
	"testing"
	"time"

	"cyclops/internal/geom"
)

func TestReportOpacity(t *testing.T) {
	// The report is NOT the true pose: frame and offset are hidden.
	tr := New(1)
	truth := geom.NewPose(geom.QuatIdentity(), geom.V(0.5, 1.6, 0.5))
	rep := tr.Report(truth, 0)
	if rep.Pose.Trans.Dist(truth.Trans) < 1e-3 {
		t.Error("report suspiciously equals the true pose — hidden frames missing")
	}
}

func TestReportConsistentWithHiddenFrames(t *testing.T) {
	tr := New(2, WithNoise(0, 0), WithWarp(0, 0, 0))
	truth := geom.NewPose(geom.QuatFromAxisAngle(geom.V(0, 1, 0), 0.3), geom.V(0.1, 1.5, -0.2))
	rep := tr.Report(truth, 0)
	want := tr.VRSpace().Compose(truth).Compose(tr.Offset())
	lin, ang := rep.Pose.Delta(want)
	if lin > 1e-12 || ang > 1e-9 {
		t.Errorf("noise-free report off by %v m / %v rad", lin, ang)
	}
}

func TestStationaryNoiseBounds(t *testing.T) {
	// §5.2: stationary headset, location varies ≲1.79 mm, orientation
	// ≲0.41 mrad. Collect many reports and check the spread is in that
	// regime (non-zero, bounded).
	tr := New(3)
	truth := geom.NewPose(geom.QuatIdentity(), geom.V(0, 1.6, 0))
	base := tr.Report(truth, 0)
	var maxLin, maxAng float64
	for i := 0; i < 2000; i++ {
		rep := tr.Report(truth, 0)
		lin, ang := base.Pose.Delta(rep.Pose)
		maxLin = math.Max(maxLin, lin)
		maxAng = math.Max(maxAng, ang)
	}
	if maxLin == 0 || maxAng == 0 {
		t.Fatal("no stationary noise")
	}
	if maxLin < 0.5e-3 || maxLin > 4e-3 {
		t.Errorf("stationary location spread = %v m, want ≈1.8 mm", maxLin)
	}
	if maxAng < 0.1e-3 || maxAng > 1.2e-3 {
		t.Errorf("stationary orientation spread = %v rad, want ≈0.4 mrad", maxAng)
	}
}

func TestNextIntervalDistribution(t *testing.T) {
	tr := New(4)
	var slow int
	const n = 20000
	for i := 0; i < n; i++ {
		iv := tr.NextInterval()
		switch {
		case iv >= 12*time.Millisecond && iv <= 13*time.Millisecond:
		case iv >= 14*time.Millisecond && iv <= 15*time.Millisecond:
			slow++
		default:
			t.Fatalf("interval %v outside 12-13/14-15 ms", iv)
		}
	}
	frac := float64(slow) / n
	if frac < 0.003 || frac > 0.012 {
		t.Errorf("slow-report fraction = %v, want ≈0.007", frac)
	}
}

func TestSpeeds(t *testing.T) {
	a := Report{
		Pose: geom.NewPose(geom.QuatIdentity(), geom.V(0, 0, 0)),
		At:   0,
	}
	b := Report{
		Pose: geom.NewPose(geom.QuatFromAxisAngle(geom.V(0, 1, 0), 0.002), geom.V(0.001, 0, 0)),
		At:   10 * time.Millisecond,
	}
	lin, ang := Speeds(a, b)
	if math.Abs(lin-0.1) > 1e-9 {
		t.Errorf("linear speed = %v, want 0.1 m/s", lin)
	}
	if math.Abs(ang-0.2) > 1e-9 {
		t.Errorf("angular speed = %v, want 0.2 rad/s", ang)
	}
	// Degenerate dt.
	if l, a2 := Speeds(b, a); l != 0 || a2 != 0 {
		t.Error("non-positive dt should yield zero speeds")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, b := New(7), New(7)
	truth := geom.NewPose(geom.QuatIdentity(), geom.V(1, 1, 1))
	ra, rb := a.Report(truth, 0), b.Report(truth, 0)
	lin, ang := ra.Pose.Delta(rb.Pose)
	if lin != 0 || ang > 1e-12 {
		t.Error("same seed produced different reports")
	}
}

func TestMotionScaledNoise(t *testing.T) {
	// A headset moving at 0.5 m/s reports with visibly more noise than a
	// stationary one (IMU integration + camera blur).
	spread := func(moving bool) float64 {
		tr := New(9, WithWarp(0, 0, 0))
		var max float64
		pos := geom.V(0, 1.6, 0)
		at := time.Duration(0)
		var prev Report
		for i := 0; i < 500; i++ {
			if moving {
				pos = pos.Add(geom.V(0.00625, 0, 0)) // 0.5 m/s at 12.5 ms
			}
			truth := geom.NewPose(geom.QuatIdentity(), pos)
			rep := tr.Report(truth, at)
			if i > 0 {
				// Deviation of the measured step from the true step.
				lin, _ := prev.Pose.Delta(rep.Pose)
				trueStep := 0.0
				if moving {
					trueStep = 0.00625
				}
				if d := math.Abs(lin - trueStep); d > max {
					max = d
				}
			}
			prev = rep
			at += 12500 * time.Microsecond
		}
		return max
	}
	still := spread(false)
	moving := spread(true)
	if moving < 2*still {
		t.Errorf("motion noise %.4f not ≫ stationary %.4f", moving, still)
	}
}

// TestWithMotionNoiseDisable: zero speed-proportional noise growth keeps
// the noise at the stationary floor.
func TestWithMotionNoiseDisable(t *testing.T) {
	tr := New(10, WithWarp(0, 0, 0))
	tr.motionNoiseLin, tr.motionNoiseAng = 0, 0
	// Even at speed, noise stays at the stationary floor.
	pos := geom.V(0, 1.6, 0)
	at := time.Duration(0)
	var maxDev float64
	var prev Report
	for i := 0; i < 300; i++ {
		pos = pos.Add(geom.V(0.00625, 0, 0))
		rep := tr.Report(geom.NewPose(geom.QuatIdentity(), pos), at)
		if i > 0 {
			lin, _ := prev.Pose.Delta(rep.Pose)
			if d := math.Abs(lin - 0.00625); d > maxDev {
				maxDev = d
			}
		}
		prev = rep
		at += 12500 * time.Microsecond
	}
	// Pure stationary noise: a few×0.45 mm per axis, differenced.
	if maxDev > 4e-3 {
		t.Errorf("disabled motion noise still grew: %.4f", maxDev)
	}
}

// Holdover replays the last report with a fresh timestamp and consumes no
// randomness — a freeze window must leave the noise stream untouched.
func TestHoldover(t *testing.T) {
	tr := New(3)
	truth := geom.NewPose(geom.QuatIdentity(), geom.V(0.3, 1.5, 0.4))
	rep := tr.Report(truth, 10*time.Millisecond)

	held := tr.Holdover(20 * time.Millisecond)
	if held.At != 20*time.Millisecond {
		t.Errorf("holdover At = %v, want 20ms", held.At)
	}
	if held.Pose != rep.Pose {
		t.Error("holdover pose differs from the last report")
	}

	// The RNG stream is untouched: a twin tracker that never held over
	// produces bit-identical subsequent reports.
	twin := New(3)
	twin.Report(truth, 10*time.Millisecond)
	a := tr.Report(truth, 30*time.Millisecond)
	b := twin.Report(truth, 30*time.Millisecond)
	if a.Pose != b.Pose {
		t.Error("holdover consumed randomness — subsequent reports diverged")
	}
}

// Before any report exists, Holdover degrades to the identity pose rather
// than inventing data.
func TestHoldoverBeforeFirstReport(t *testing.T) {
	tr := New(4)
	rep := tr.Holdover(5 * time.Millisecond)
	if rep.At != 5*time.Millisecond {
		t.Errorf("At = %v", rep.At)
	}
	if rep.Pose != geom.PoseIdentity() {
		t.Errorf("pose = %v, want identity", rep.Pose)
	}
}
