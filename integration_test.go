package cyclops

import (
	"math"
	"testing"
	"time"
)

// Integration tests exercising the whole stack through the public API.

func TestSystemDeterminism(t *testing.T) {
	// Identical seeds must produce bit-identical runs: same calibration,
	// same pointing decisions, same throughput windows. This is what
	// makes every experiment in EXPERIMENTS.md reproducible.
	run := func() RunResult {
		sys := NewSystem(Link10G, 77)
		sys.UseOracleModels()
		res, err := sys.Run(RunOptions{
			Program:     LinearRail(0.15, 0.12, 0, 2),
			SampleEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.UpFraction != b.UpFraction || a.Points != b.Points ||
		a.TotalPointIters != b.TotalPointIters {
		t.Fatalf("runs diverged: %+v vs %+v", a.Points, b.Points)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	mk := func(seed int64) float64 {
		sys := NewSystem(Link10G, seed)
		sys.UseOracleModels()
		return sys.Plant.ReceivedPowerDBm()
	}
	if mk(1) == mk(2) {
		t.Error("different seeds produced identical hidden worlds")
	}
}

func TestCalibratedSystemSurvivesTracePlayback(t *testing.T) {
	// End-to-end: calibrate once, then play three viewing traces through
	// the full controller (not the §5.4 abstraction) — the link should be
	// up nearly all the time for normal viewing.
	if testing.Short() {
		t.Skip("full-system trace run in -short mode")
	}
	sys := NewSystem(Link10G, 78)
	if _, err := sys.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, index := range []int{3, 7, 23} {
		tr := GenerateTrace(5, index, 20*time.Second)
		res, err := sys.Run(RunOptions{
			Program:     Playback(tr),
			SampleEvery: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// §5.4's metric: the fraction of time the beam is *aligned*
		// (power above sensitivity). The SFP's multi-second re-lock makes
		// the raw up-fraction far worse whenever a saccade tail briefly
		// exceeds tolerance — which is exactly why the paper's §5.4
		// simulation counts slots, and why §6 pushes for higher-rate
		// tracking.
		var ok int
		for _, s := range res.Samples {
			if s.PowerOK {
				ok++
			}
		}
		aligned := float64(ok) / float64(len(res.Samples))
		if aligned < 0.93 {
			t.Errorf("trace %d: viewing-trace aligned fraction %.3f — normal use should mostly hold", index, aligned)
		}
		if res.PointFailures > res.Points/50 {
			t.Errorf("trace %d: %d/%d pointing failures", index, res.PointFailures, res.Points)
		}
		t.Logf("trace %d playback: aligned %.1f%%, SFP up %.1f%%, %d solves, %.1f P iters",
			index, aligned*100, res.UpFraction*100, res.Points, res.MeanPointIters())
	}
}

func TestRecalibrationAfterRedeployment(t *testing.T) {
	// The §4 deployment story: moving the installation (new VR-space,
	// new mounts) only requires redoing the mapping stage; the K-space
	// models carry over. We simulate by recalibrating a second system
	// that reuses the first system's stage-1 models.
	if testing.Short() {
		t.Skip("two calibrations in -short mode")
	}
	sysA := NewSystem(Link10G, 79)
	repA, err := sysA.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	_ = repA

	// "Redeploy": fresh tracker/mounts (different seed) but the same
	// physical GMAs is not constructible through the public API, so we
	// verify the weaker, still-meaningful property: a second full
	// calibration of an independent system also converges to working
	// pointing. (Stage-1 model portability is covered by
	// gma.Transformed's tests.)
	sysB := NewSystem(Link10G, 80)
	if _, err := sysB.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{sysA, sysB} {
		res, err := sys.Run(RunOptions{
			Program: LinearRail(0.10, 0.10, 0, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.UpFraction < 0.95 {
			t.Errorf("calibrated system up fraction %.2f", res.UpFraction)
		}
	}
}

func TestStreamVideoEdgeCases(t *testing.T) {
	// Empty run: nothing generated.
	st := StreamVideo(RunResult{}, Video4K30, 9.4)
	if st.Generated != 0 {
		t.Errorf("empty run generated %d frames", st.Generated)
	}
	// Single-sample run does not panic and uses the fallback tick.
	one := RunResult{Samples: []Sample{{At: 0, Up: true}}}
	_ = StreamVideo(one, Video4K30, 9.4)
}

func TestSpeedAccessors(t *testing.T) {
	s := Sample{LinSpeed: 0.25, AngSpeed: 0.5}
	if LinSpeedOf(s) != 0.25 || AngSpeedOf(s) != 0.5 {
		t.Error("accessors broken")
	}
}

func TestDefaultHeadsetPoseGeometry(t *testing.T) {
	// The default rig geometry is the paper's 1.5–2 m link.
	h := DefaultHeadsetPose()
	txHeight := 2.75
	d := math.Hypot(math.Hypot(h.Trans.X, h.Trans.Y), txHeight-h.Trans.Z)
	if d < 1.5 || d > 2.0 {
		t.Errorf("default TX-RX distance %.2f m, want 1.5-2", d)
	}
}
