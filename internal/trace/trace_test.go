package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/parallel"
)

func degPerSec(rad float64) float64 { return rad * 180 / math.Pi }

func TestGenerateShape(t *testing.T) {
	tr := Generate(1, 0, time.Minute, geom.V(0.35, 0.25, 1.0))
	if got := len(tr.Samples); got != 6001 {
		t.Errorf("1-min trace has %d samples, want 6001 at 10 ms", got)
	}
	if tr.Duration() != time.Minute {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestFig3SpeedCalibration(t *testing.T) {
	// The Fig 3 claim: during normal use, angular ≤ ~19 deg/s and linear
	// ≤ ~14 cm/s. We check the 95th percentile across a sample of traces
	// sits in that regime, with tails above but bounded.
	var p95Lin, p95Ang, maxLin, maxAng float64
	const n = 25
	for i := 0; i < n; i++ {
		s := Generate(7, i, time.Minute, geom.V(0.35, 0.25, 1.0)).Stats()
		p95Lin += s.P95Linear
		p95Ang += s.P95Angular
		maxLin = math.Max(maxLin, s.MaxLinear)
		maxAng = math.Max(maxAng, s.MaxAngular)
	}
	p95Lin /= n
	p95Ang /= n

	if got := p95Lin * 100; got < 2 || got > 16 {
		t.Errorf("mean P95 linear speed = %.1f cm/s, want ≲14", got)
	}
	if got := degPerSec(p95Ang); got < 5 || got > 24 {
		t.Errorf("mean P95 angular speed = %.1f deg/s, want ≲19", got)
	}
	// Tails exist (saccades) but stay within plausible head motion.
	if degPerSec(maxAng) < 20 {
		t.Errorf("no angular tail: max %.1f deg/s", degPerSec(maxAng))
	}
	if degPerSec(maxAng) > 200 || maxLin > 1.0 {
		t.Errorf("implausible speeds: %.1f deg/s, %.2f m/s", degPerSec(maxAng), maxLin)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(3, 5, 10*time.Second, geom.Zero)
	b := Generate(3, 5, 10*time.Second, geom.Zero)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i].Pose != b.Samples[i].Pose {
			t.Fatalf("sample %d differs", i)
		}
	}
	// Different indices differ.
	c := Generate(3, 6, 10*time.Second, geom.Zero)
	if a.Samples[500].Pose == c.Samples[500].Pose {
		t.Error("different trace indices identical")
	}
}

func TestPoseAtInterpolation(t *testing.T) {
	tr := Generate(4, 0, time.Second, geom.Zero)
	// Exactly on a sample.
	if got := tr.PoseAt(100 * time.Millisecond); got != tr.Samples[10].Pose {
		t.Error("PoseAt on-sample mismatch")
	}
	// Midpoint lies between neighbors.
	mid := tr.PoseAt(105 * time.Millisecond)
	l1, _ := tr.Samples[10].Pose.Delta(mid)
	l2, _ := mid.Delta(tr.Samples[11].Pose)
	full, _ := tr.Samples[10].Pose.Delta(tr.Samples[11].Pose)
	if math.Abs(l1+l2-full) > 1e-9 {
		t.Errorf("interpolated pose not on segment: %v + %v vs %v", l1, l2, full)
	}
	// Clamping.
	if got := tr.PoseAt(-time.Second); got != tr.Samples[0].Pose {
		t.Error("no clamp below")
	}
	if got := tr.PoseAt(time.Hour); got != tr.Samples[len(tr.Samples)-1].Pose {
		t.Error("no clamp above")
	}
}

func TestPoseAtEmpty(t *testing.T) {
	var tr Trace
	if got := tr.PoseAt(0); got != geom.PoseIdentity() {
		t.Error("empty trace should return identity")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(5, 1, 2*time.Second, geom.V(0.1, 0.2, 1.0))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(tr.Samples) {
		t.Fatalf("lost samples: %d vs %d", len(back.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		lin, ang := tr.Samples[i].Pose.Delta(back.Samples[i].Pose)
		if lin > 1e-6 || ang > 1e-6 {
			t.Fatalf("sample %d drifted: %v m, %v rad", i, lin, ang)
		}
		if tr.Samples[i].At != back.Samples[i].At {
			t.Fatalf("sample %d time drifted", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("t_ms,x\n"), "x"); err == nil {
		t.Error("header-only CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("h\n1,2\n"), "x"); err == nil {
		t.Error("wrong-width CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader(
		"t_ms,x,y,z,yaw,pitch,roll\n0,a,0,0,0,0,0\n"), "x"); err == nil {
		t.Error("non-numeric CSV accepted")
	}
}

func TestEulerRoundTrip(t *testing.T) {
	for _, angles := range [][3]float64{
		{0, 0, 0}, {0.5, 0.2, -0.3}, {-1.2, 0.4, 0.1}, {2.8, -0.6, 0.5},
	} {
		q := geom.QuatFromEuler(angles[0], angles[1], angles[2])
		y, p, r := eulerFromQuat(q)
		q2 := geom.QuatFromEuler(y, p, r)
		if ang := q.AngleTo(q2); ang > 1e-6 {
			t.Errorf("euler roundtrip for %v drifted %v rad", angles, ang)
		}
	}
}

func TestDatasetSize(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus in -short mode")
	}
	src := Source{Seed: 11, N: DatasetTraces, Length: time.Minute, Origin: geom.V(0.35, 0.25, 1.0)}
	ds := parallel.Map(src.Len(), 0, src.At)
	if len(ds) != 500 {
		t.Fatalf("dataset has %d traces, want 500", len(ds))
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, tr := range ds {
		if seen[tr.ID] {
			t.Fatalf("duplicate trace ID %s", tr.ID)
		}
		seen[tr.ID] = true
	}
}

// TestDatasetWorkerDeterminism: generating the §5.4 corpus from a Source
// across any worker count yields the identical traces.
func TestDatasetWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-trace corpus ×3 in -short mode")
	}
	src := Source{Seed: 11, N: DatasetTraces, Length: time.Minute, Origin: geom.V(0.35, 0.25, 1.0)}
	serial := parallel.Map(src.Len(), 1, src.At)
	for _, workers := range []int{4, 8} {
		got := parallel.Map(src.Len(), workers, src.At)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: corpus differs from serial generation", workers)
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	var tr Trace
	s := tr.Stats()
	if s.MaxLinear != 0 || s.MaxAngular != 0 {
		t.Error("empty trace stats nonzero")
	}
}

func TestPercentileOrdering(t *testing.T) {
	tr := Generate(6, 2, 30*time.Second, geom.Zero)
	s := tr.Stats()
	if s.P95Linear > s.MaxLinear || s.P95Angular > s.MaxAngular {
		t.Error("P95 exceeds max")
	}
}
