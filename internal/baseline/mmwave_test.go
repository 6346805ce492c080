package baseline

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/obs"
)

func handMotion(seed int64) motion.Program {
	return &motion.HandHeld{
		Base:       link.DefaultHeadsetPose(),
		MaxLinear:  0.14,
		MaxAngular: 0.33,
		Len:        15 * time.Second,
		Seed:       seed,
	}
}

func TestMmWaveSurvivesNormalMotion(t *testing.T) {
	// The baseline's whole appeal: a 3° beam shrugs off head motion that
	// stresses the optical link.
	res := NewMmWave().Run(handMotion(1), nil)
	if res.UpFraction < 0.999 {
		t.Errorf("mmWave up fraction %.3f under normal motion", res.UpFraction)
	}
	if res.MeanGoodputGbps < 4.0 {
		t.Errorf("mmWave goodput %.2f Gbps, want ≈4.6", res.MeanGoodputGbps)
	}
}

func TestMmWaveCannotExceedItsPeak(t *testing.T) {
	// And its whole problem: 4.6 Gbps is the ceiling — half a 10G FSO
	// link, a fifth of the 25G one (§1).
	res := NewMmWave().Run(handMotion(2), nil)
	if res.MeanGoodputGbps > 7 {
		t.Errorf("mmWave goodput %.2f Gbps — model too generous", res.MeanGoodputGbps)
	}
	for _, w := range res.Windows {
		if w.Gbps > 7 {
			t.Fatalf("window at %v = %.2f Gbps", w.Start, w.Gbps)
		}
	}
}

func TestMmWaveBlockageHurts(t *testing.T) {
	blocked := func(at time.Duration) bool {
		return (at/time.Second)%4 >= 2 // blocked half the time
	}
	clear := NewMmWave().Run(handMotion(3), nil)
	obstructed := NewMmWave().Run(handMotion(3), blocked)
	if obstructed.MeanGoodputGbps > clear.MeanGoodputGbps*0.7 {
		t.Errorf("25 dB body blockage barely hurt: %.2f vs %.2f Gbps",
			obstructed.MeanGoodputGbps, clear.MeanGoodputGbps)
	}
}

func TestMmWaveStaleBeamDegrades(t *testing.T) {
	// Between training cycles the beam stays where it was trained: a
	// head that moves 0.4 m leaves the 3° lobe until the next cycle.
	l := NewMmWave()
	h := link.DefaultHeadsetPose().Trans
	if g := l.Step(0, h, false); g != PeakGoodputGbps {
		t.Fatalf("trained beam delivered %.2f Gbps, want the peak", g)
	}
	moved := h.Add(geom.V(0.4, 0, 0))
	if miss := moved.Sub(apPosition).Unit().AngleTo(l.aim); miss <= beamWidth {
		t.Fatalf("0.4 m move is only %.2f° off the beam — still inside the lobe", miss*180/math.Pi)
	}
	if g := l.Step(trainInterval/2, moved, false); g > 0 {
		t.Errorf("stale beam still delivered %.2f Gbps", g)
	}
	if g := l.Step(trainInterval, moved, false); g != PeakGoodputGbps {
		t.Errorf("retrained beam delivered %.2f Gbps, want the peak", g)
	}
}

func TestGoodputLadderMonotone(t *testing.T) {
	l := NewMmWave()
	h := link.DefaultHeadsetPose().Trans
	l.aim = h.Sub(apPosition).Unit()
	aligned := l.goodputAt(h, false)
	blockedRate := l.goodputAt(h, true)
	if aligned != PeakGoodputGbps {
		t.Errorf("aligned rate %.2f", aligned)
	}
	if blockedRate >= aligned {
		t.Error("blockage did not reduce rate")
	}
	// Degenerate geometry.
	if g := l.goodputAt(apPosition, false); g != 0 {
		t.Errorf("zero-range goodput %.2f", g)
	}
}

// TestMmWaveStepMatchesRun: the Step/Reset state machine the hybrid layer
// drives must reproduce Run's loop exactly.
func TestMmWaveStepMatchesRun(t *testing.T) {
	prog := handMotion(3)
	blocked := func(at time.Duration) bool {
		return at > 4*time.Second && at < 5*time.Second
	}
	want := NewMmWave().Run(prog, blocked)

	l := NewMmWave()
	l.Reset()
	const tick = time.Millisecond
	var ticks, up int
	var sum float64
	for at := time.Duration(0); at <= prog.Duration(); at += tick {
		g := l.Step(at, prog.Pose(at).Trans, blocked(at))
		if g > 0 {
			up++
		}
		sum += g
		ticks++
	}
	gotUp := float64(up) / float64(ticks)
	gotMean := sum / float64(ticks)
	if gotUp != want.UpFraction || gotMean != want.MeanGoodputGbps {
		t.Fatalf("Step loop: up %v mean %v, Run: up %v mean %v",
			gotUp, gotMean, want.UpFraction, want.MeanGoodputGbps)
	}
}

// TestMmWaveMetricsOnlyWithRegistry: a nil registry yields nil metrics
// and a metrics-free run; a real registry records goodput, retrains, and
// the blockage gauge under cyclops_mmwave_* names.
func TestMmWaveMetricsOnlyWithRegistry(t *testing.T) {
	if m := NewMmWaveMetrics(nil); m != nil {
		t.Fatal("NewMmWaveMetrics(nil) must return nil")
	}

	reg := obs.NewRegistry()
	l := NewMmWave()
	l.Metrics = NewMmWaveMetrics(reg)
	prog := handMotion(4)
	l.Run(prog, func(at time.Duration) bool { return at < time.Second })

	exp := reg.Exposition()
	wantRetrains := int(prog.Duration()/trainInterval) + 1
	if want := fmt.Sprintf("cyclops_mmwave_retrain_total %d", wantRetrains); !strings.Contains(exp, want) {
		t.Errorf("exposition missing %q:\n%s", want, exp)
	}
	ticks := int(prog.Duration()/time.Millisecond) + 1
	if want := fmt.Sprintf("cyclops_mmwave_goodput_gbps_count %d", ticks); !strings.Contains(exp, want) {
		t.Errorf("exposition missing %q:\n%s", want, exp)
	}
	// The last tick is unblocked, so the gauge must have settled at 0.
	if !strings.Contains(exp, "cyclops_mmwave_blockage_loss_db 0") {
		t.Errorf("blockage gauge not settled at 0:\n%s", exp)
	}
}
