package core

import (
	"math"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// gateProg is a slow stroke with dwells: motion segments fast enough to
// defeat the gate's cone, separated by near-static dwells the gate can
// answer without solving.
func gateProg() motion.Program {
	return motion.LinearStrokes{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfTravel: 0.10,
		StartSpeed: 0.10,
		SpeedStep:  0,
		Strokes:    2,
		Dwell:      300 * time.Millisecond,
	}
}

// TestSolveGateNilBitIdentical pins the opt-out contract after the
// pointer-arm migration: the gate is armed by setting RunOptions.SolveGate
// (there is no Enable bit any more, so the old ambiguous "disabled but
// thresholds set" state is unrepresentable). A nil arm must engage no gate
// machinery — zero skips — and stay bit-identical run to run: same
// samples, same pointing counts.
func TestSolveGateNilBitIdentical(t *testing.T) {
	run := func() RunResult {
		t.Helper()
		s := oracleSystem(optics.Diverging10G16mm, 11)
		res, err := s.Run(RunOptions{Program: gateProg(), SolveGate: nil})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	off := run()

	if base.SolvesSkipped != 0 || off.SolvesSkipped != 0 {
		t.Fatalf("nil gate skipped solves: %d / %d", base.SolvesSkipped, off.SolvesSkipped)
	}
	if base.Points != off.Points || base.PointFailures != off.PointFailures ||
		base.TotalPointIters != off.TotalPointIters ||
		base.TotalGPrimeIters != off.TotalGPrimeIters ||
		base.Disconnections != off.Disconnections ||
		math.Float64bits(base.UpFraction) != math.Float64bits(off.UpFraction) {
		t.Fatalf("nil gate is not deterministic:\n  base %+v\n  off  %+v", base, off)
	}
	if len(base.Samples) != len(off.Samples) {
		t.Fatalf("sample count differs: %d vs %d", len(base.Samples), len(off.Samples))
	}
	for i := range base.Samples {
		if base.Samples[i] != off.Samples[i] {
			t.Fatalf("sample %d differs:\n  base %+v\n  off  %+v", i, base.Samples[i], off.Samples[i])
		}
	}
}

// TestSolveGateSkipsNearStaticReports checks the gate earns its keep
// without hurting the link: during the dwells the pose moves less than
// the cone, those reports are answered without a P solve (counted in
// both RunResult and the cyclops_pointing_solves_skipped_total counter),
// and the link holds because the last accepted command is still inside
// the beam's capture tolerance.
func TestSolveGateSkipsNearStaticReports(t *testing.T) {
	base := func() RunResult {
		s := oracleSystem(optics.Diverging10G16mm, 11)
		res, err := s.Run(RunOptions{Program: gateProg()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	s := oracleSystem(optics.Diverging10G16mm, 11)
	res, err := s.Run(RunOptions{Program: gateProg(), SolveGate: &SolveGateOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolvesSkipped == 0 {
		t.Fatal("gate enabled over 600 ms of dwells yet skipped nothing")
	}
	if got := res.Metrics.Counters["cyclops_pointing_solves_skipped_total"]; got != float64(res.SolvesSkipped) {
		t.Errorf("skip counter = %v, want %d", got, res.SolvesSkipped)
	}
	if res.Points >= base.Points {
		t.Errorf("gated run solved %d times, ungated %d — gate saved nothing", res.Points, base.Points)
	}
	if res.Points+res.SolvesSkipped != base.Points {
		t.Errorf("solves (%d) + skips (%d) != ungated solves (%d): reports went missing",
			res.Points, res.SolvesSkipped, base.Points)
	}
	if res.UpFraction < 0.98 {
		t.Errorf("gated up fraction = %v — skipping in-cone solves broke the link", res.UpFraction)
	}
}

// TestSolveGateValidate: the gate's tolerance cone is fixed, so an armed
// gate and a nil arm both validate.
func TestSolveGateValidate(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	cases := []struct {
		name string
		gate *SolveGateOptions
		ok   bool
	}{
		{"nil arm", nil, true},
		{"armed", &SolveGateOptions{}, true},
	}
	for _, c := range cases {
		err := RunOptions{Program: prog, SolveGate: c.gate}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
