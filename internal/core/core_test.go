package core

import (
	"math"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/pointing"
)

func oracleSystem(cfg optics.LinkConfig, seed int64) *System {
	s := NewSystem(cfg, seed)
	s.UseOracleModels()
	return s
}

func TestRunRequiresCalibration(t *testing.T) {
	s := NewSystem(optics.Diverging10G16mm, 1)
	_, err := s.Run(RunOptions{Program: motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}})
	if err == nil {
		t.Error("uncalibrated run accepted")
	}
	if _, err := s.PointNow(0, pointing.Voltages{}); err == nil {
		t.Error("uncalibrated PointNow accepted")
	}
}

func TestRunRequiresProgram(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 1)
	if _, err := s.Run(RunOptions{}); err == nil {
		t.Error("nil program accepted")
	}
}

func TestRunOptionsValidate(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	cases := []struct {
		name string
		opts RunOptions
		ok   bool
	}{
		{"zero values mean defaults", RunOptions{Program: prog}, true},
		{"explicit values", RunOptions{Program: prog, Duration: time.Second, SampleEvery: 5 * time.Millisecond, ReportEvery: 2 * time.Millisecond}, true},
		{"nil program", RunOptions{}, false},
		{"negative duration", RunOptions{Program: prog, Duration: -time.Second}, false},
		{"negative sample", RunOptions{Program: prog, SampleEvery: -time.Millisecond}, false},
		{"negative report", RunOptions{Program: prog, ReportEvery: -time.Millisecond}, false},
		{"explicit restart jitter", RunOptions{Program: prog, Recovery: RecoveryOptions{RestartJitterV: 0.05}}, true},
		{"negative restart jitter", RunOptions{Program: prog, Recovery: RecoveryOptions{RestartJitterV: -0.01}}, false},
		{"NaN restart jitter", RunOptions{Program: prog, Recovery: RecoveryOptions{RestartJitterV: math.NaN()}}, false},
		{"infinite restart jitter", RunOptions{Program: prog, Recovery: RecoveryOptions{RestartJitterV: math.Inf(1)}}, false},
	}
	for _, c := range cases {
		if err := c.opts.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// Run rejects what Validate rejects.
	s := oracleSystem(optics.Diverging10G16mm, 1)
	if _, err := s.Run(RunOptions{Program: prog, SampleEvery: -time.Millisecond}); err == nil {
		t.Error("Run accepted a negative SampleEvery")
	}
}

// FuzzRunOptionsValidate: Validate never panics, accepts a bare
// RunOptions{Program: p}, and rejects exactly the option sets with a
// negative duration, a negative or non-finite RestartJitterV, or a
// malformed (negative start, end before start) or unsorted window in the
// primary schedule or, with handover armed, the standby's.
func FuzzRunOptionsValidate(f *testing.F) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	if err := (RunOptions{Program: prog}).Validate(); err != nil {
		f.Fatalf("bare options rejected: %v", err)
	}
	f.Fuzz(func(t *testing.T, dur, sample, report int64, jitter float64,
		ps0, pe0, ps1, pe1, ss0, se0, ss1, se1 int64, handover bool) {
		// sched builds a two-window schedule and reports whether it is
		// malformed or unsorted.
		sched := func(s0, e0, s1, e1 int64) (*fault.Schedule, bool) {
			w0 := fault.Window{Kind: fault.Occlusion, Start: time.Duration(s0), End: time.Duration(e0), DepthDB: 40}
			w1 := fault.Window{Kind: fault.Occlusion, Start: time.Duration(s1), End: time.Duration(e1), DepthDB: 40}
			bad := w0.Start < 0 || w0.End < w0.Start || w1.Start < 0 || w1.End < w1.Start || w1.Start < w0.Start
			return &fault.Schedule{Seed: 1, Windows: []fault.Window{w0, w1}}, bad
		}
		primary, bad := sched(ps0, pe0, ps1, pe1)
		o := RunOptions{
			Program:     prog,
			Duration:    time.Duration(dur),
			SampleEvery: time.Duration(sample),
			ReportEvery: time.Duration(report),
			Recovery:    RecoveryOptions{RestartJitterV: jitter},
			Faults:      primary,
		}
		bad = bad || o.Duration < 0 || o.SampleEvery < 0 || o.ReportEvery < 0 ||
			!(jitter >= 0) || math.IsInf(jitter, 1)
		if handover {
			standby, standbyBad := sched(ss0, se0, ss1, se1)
			// Validate reads only the standby count, so placeholder
			// plants keep the fuzz loop free of calibration.
			o.Handover = &HandoverOptions{
				Standbys:      make([]*link.Plant, 1),
				StandbyFaults: []*fault.Schedule{standby},
			}
			bad = bad || standbyBad
		}
		if err := o.Validate(); (err != nil) != bad {
			t.Fatalf("Validate(%+v, handover %v) = %v, want rejection %v", o, handover, err, bad)
		}
	})
}

func TestRunRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := oracleSystem(optics.Diverging10G16mm, 2)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics
	if got := snap.Counters["cyclops_run_ticks_total"]; got != 1001 {
		t.Errorf("ticks counter = %v, want 1001 (1 s at 1 ms inclusive)", got)
	}
	if snap.Counters["cyclops_run_reports_total"] <= 0 {
		t.Error("no tracking reports recorded")
	}
	h, ok := snap.Histograms["cyclops_run_repoint_latency_seconds"]
	if !ok || h.Count == 0 {
		t.Error("repoint latency histogram empty")
	}
	if p, ok := snap.Histograms["cyclops_link_received_power_dbm"]; !ok || p.Count == 0 {
		t.Error("received power histogram empty")
	}
	if _, ok := snap.Counters["cyclops_netem_packets_total"]; !ok {
		t.Error("netem packet counter missing")
	}
	// The caller's registry saw the same data.
	if got := reg.Snapshot().Counters["cyclops_run_ticks_total"]; got != 1001 {
		t.Errorf("registry ticks counter = %v, want 1001", got)
	}
	// A second run into the same registry diffs correctly: per-run
	// metrics stay per-run even on a shared registry.
	res2, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Metrics.Counters["cyclops_run_ticks_total"]; got != 1001 {
		t.Errorf("second run's diffed ticks counter = %v, want 1001", got)
	}
}

func TestRunStaticLinkStaysUp(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 2)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UpFraction < 0.999 {
		t.Errorf("static link up fraction = %v", res.UpFraction)
	}
	if res.Disconnections != 0 {
		t.Errorf("static link disconnected %d times", res.Disconnections)
	}
	// Throughput windows at the optimal rate after the initial ramp.
	ws := res.Windows
	if len(ws) < 10 {
		t.Fatalf("only %d windows", len(ws))
	}
	for _, w := range ws[5:] {
		if math.Abs(w.Gbps-9.4) > 0.2 {
			t.Errorf("window %v = %.2f Gbps, want 9.4", w.Start, w.Gbps)
		}
	}
}

func TestRunTPKeepsLinkThroughSlowMotion(t *testing.T) {
	// A slow linear stroke well inside the paper's tolerated envelope
	// (≤33 cm/s): with TP on, the link holds; with TP off, it dies.
	prog := motion.LinearStrokes{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfTravel: 0.15,
		StartSpeed: 0.10,
		SpeedStep:  0,
		Strokes:    2,
		Dwell:      100 * time.Millisecond,
	}
	s := oracleSystem(optics.Diverging10G16mm, 3)
	res, err := s.Run(RunOptions{Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.UpFraction < 0.98 {
		t.Errorf("TP-on up fraction = %v for 10 cm/s strokes", res.UpFraction)
	}

	s2 := oracleSystem(optics.Diverging10G16mm, 3)
	res2, err := s2.Run(RunOptions{Program: prog, DisableTP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.UpFraction > 0.6 {
		t.Errorf("TP-off up fraction = %v — mirrors frozen yet link survived 30 cm travel", res2.UpFraction)
	}
}

func TestRunPointingStatistics(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 4)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~80 reports in a second at 12-13 ms cadence.
	if res.Points < 70 || res.Points > 90 {
		t.Errorf("pointing solves = %d, want ≈80", res.Points)
	}
	if res.PointFailures > 0 {
		t.Errorf("%d pointing failures", res.PointFailures)
	}
	// §4.3: P converges in 2–5 iterations (warm-started it sits at the
	// bottom of that range); G′ in 2–4.
	if it := res.MeanPointIters(); it < 1 || it > 6 {
		t.Errorf("mean P iterations = %.1f", it)
	}
	if it := res.MeanGPrimeIters(); it < 1 || it > 5 {
		t.Errorf("mean G' iterations = %.1f", it)
	}
	// §5.2: TP latency 1–2 ms.
	if res.MeanTPLatency < time.Millisecond || res.MeanTPLatency > 3*time.Millisecond {
		t.Errorf("TP latency = %v, want 1-2 ms", res.MeanTPLatency)
	}
}

func TestRunWarmStartsFromInFlightCommand(t *testing.T) {
	// Reports every 1 ms outpace the ~1.8 ms realignment latency, so
	// every solve after the first happens while a mirror command is still
	// in flight. The solver must warm-start from that in-flight command —
	// where the mirrors are actually headed — not from the stale applied
	// voltages: during a steady stroke the stale start drifts ever
	// further from the solution and costs extra P iterations per solve
	// (measured: 2.9 mean from the stale start vs 2.0 from the in-flight
	// command on this exact run).
	s := oracleSystem(optics.Diverging10G16mm, 11)
	res, err := s.Run(RunOptions{
		Program: motion.LinearStrokes{
			Base:       link.DefaultHeadsetPose(),
			Axis:       geom.V(1, 0, 0),
			HalfTravel: 0.15,
			StartSpeed: 0.10,
			Strokes:    2,
			Dwell:      100 * time.Millisecond,
		},
		ReportEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PointFailures > 0 {
		t.Errorf("%d pointing failures", res.PointFailures)
	}
	if it := res.MeanPointIters(); it > 2.4 {
		t.Errorf("mean P iterations = %.2f with in-flight reports, want ≈2.0 (stale warm start costs ≈2.9)", it)
	}
}

func TestRunReportEveryOverridesCadence(t *testing.T) {
	// A 5 ms fixed cadence yields ~200 reports over a second (the
	// tracker's own cadence would yield ~80) and, being slower than the
	// realignment latency, must keep the link up on a static pose.
	s := oracleSystem(optics.Diverging10G16mm, 12)
	res, err := s.Run(RunOptions{
		Program:     motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second},
		ReportEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 190 || res.Points > 210 {
		t.Errorf("pointing solves = %d with 5 ms reports, want ≈200", res.Points)
	}
	if res.UpFraction < 0.99 {
		t.Errorf("up fraction %.3f with 5 ms reports on a static pose", res.UpFraction)
	}
}

func TestSpeedThreshold(t *testing.T) {
	mk := func(speed float64, up bool) Sample {
		return Sample{LinSpeed: speed, Up: up, PowerOK: up}
	}
	var samples []Sample
	// Connected below 0.3 m/s, disconnected above.
	for v := 0.01; v < 0.6; v += 0.002 {
		for i := 0; i < 5; i++ {
			samples = append(samples, mk(v, v < 0.3))
		}
	}
	th := SpeedThreshold(samples, func(s Sample) float64 { return s.LinSpeed }, 0.05, 3)
	if th < 0.2 || th > 0.33 {
		t.Errorf("threshold = %v, want ≈0.275", th)
	}
	// Degenerate inputs.
	if SpeedThreshold(nil, func(s Sample) float64 { return 0 }, 0.05, 3) != 0 {
		t.Error("empty threshold nonzero")
	}
	if SpeedThreshold(samples, func(s Sample) float64 { return s.LinSpeed }, 0, 3) != 0 {
		t.Error("zero bucket accepted")
	}
}

func TestMaxSpeed(t *testing.T) {
	samples := []Sample{
		{LinSpeed: 0.1, PowerOK: true},
		{LinSpeed: 0.9}, // misaligned: excluded
		{LinSpeed: 0.4, PowerOK: true},
	}
	got := MaxSpeed(samples, func(s Sample) float64 { return s.LinSpeed })
	if got != 0.4 {
		t.Errorf("MaxSpeed = %v", got)
	}
}

func TestRunDurationOverride(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 7)
	res, err := s.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: time.Hour},
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1].At
	if last > 301*time.Millisecond {
		t.Errorf("run continued to %v past the 300 ms cap", last)
	}
}

func TestMixedSpeedThreshold(t *testing.T) {
	// Synthetic 2-D field: OK iff lin ≤ 0.2 AND ang ≤ 0.3.
	var samples []Sample
	for l := 0.025; l < 0.5; l += 0.05 {
		for a := 0.04; a < 0.6; a += 0.087 {
			for i := 0; i < 25; i++ {
				samples = append(samples, Sample{
					LinSpeed: l, AngSpeed: a,
					PowerOK: l <= 0.2 && a <= 0.3,
				})
			}
		}
	}
	lin, ang := MixedSpeedThreshold(samples, 0.5, 0.6, 20)
	if lin < 0.15 || lin > 0.25 {
		t.Errorf("mixed linear threshold = %v, want ≈0.2", lin)
	}
	if ang < 0.22 || ang > 0.36 {
		t.Errorf("mixed angular threshold = %v, want ≈0.3", ang)
	}
	// Degenerate bounds.
	if l, a := MixedSpeedThreshold(samples, 0, 0, 20); l != 0 || a != 0 {
		t.Error("zero bounds accepted")
	}
}

func TestMixedSpeedThresholdSparseSamples(t *testing.T) {
	// Every populated cell sits below minSamples: no cell is exercised,
	// so no tolerance can be claimed. The pre-fix code treated every
	// sparse cell as "unexercised OK" and the smallest-corner tie-break
	// fabricated (0.05 m/s, 5 deg/s) from no data.
	var samples []Sample
	for l := 0.025; l < 0.5; l += 0.05 {
		for a := 0.04; a < 0.6; a += 0.087 {
			// 3 samples per cell, far below minSamples=40.
			for i := 0; i < 3; i++ {
				samples = append(samples, Sample{LinSpeed: l, AngSpeed: a, PowerOK: true})
			}
		}
	}
	if lin, ang := MixedSpeedThreshold(samples, 0.5, 0.6, 40); lin != 0 || ang != 0 {
		t.Errorf("sparse samples produced threshold (%v, %v), want (0, 0)", lin, ang)
	}
	// A single under-populated cell: same story.
	one := []Sample{{LinSpeed: 0.01, AngSpeed: 0.01, PowerOK: true}}
	if lin, ang := MixedSpeedThreshold(one, 0.5, 0.6, 40); lin != 0 || ang != 0 {
		t.Errorf("one sample produced threshold (%v, %v), want (0, 0)", lin, ang)
	}
	// And entirely empty input.
	if lin, ang := MixedSpeedThreshold(nil, 0.5, 0.6, 40); lin != 0 || ang != 0 {
		t.Errorf("no samples produced threshold (%v, %v), want (0, 0)", lin, ang)
	}
}

func TestUseOracleModelsAligns(t *testing.T) {
	s := NewSystem(optics.Diverging10G16mm, 9)
	s.UseOracleModels()
	if !s.Calibrated() {
		t.Fatal("oracle system not calibrated")
	}
	if !s.Plant.Connected() {
		t.Error("oracle system not aligned after setup")
	}
}

// TestFig13LinearThresholdRegime runs the rail experiment with a fully
// calibrated (not oracle) system and checks the tolerated linear speed
// falls in the paper's regime (optimal ≤ ~33 cm/s).
func TestFig13LinearThresholdRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("full rig experiment in -short mode")
	}
	s := NewSystem(optics.Diverging10G16mm, 5)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	prog := motion.LinearStrokes{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfTravel: 0.20,
		StartSpeed: 0.10,
		SpeedStep:  0.05,
		Strokes:    10,
		Dwell:      150 * time.Millisecond,
	}
	res, err := s.Run(RunOptions{Program: prog, SampleEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	th := SpeedThreshold(res.Samples, func(s Sample) float64 { return s.LinSpeed }, 0.05, 20)
	t.Logf("linear threshold ≈ %.2f m/s (paper: 0.33), up fraction %.3f", th, res.UpFraction)
	if th < 0.15 || th > 0.60 {
		t.Errorf("linear speed threshold = %.2f m/s, want in the ≈0.3 regime", th)
	}
}

// TestFig13AngularThresholdRegime does the same for the rotation stage
// (optimal ≤ ~16-18 deg/s per the paper).
func TestFig13AngularThresholdRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("full rig experiment in -short mode")
	}
	s := NewSystem(optics.Diverging10G16mm, 6)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	prog := motion.AngularSweeps{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfAngle:  0.30,
		StartSpeed: 0.10,
		SpeedStep:  0.05,
		Sweeps:     10,
		Dwell:      150 * time.Millisecond,
	}
	res, err := s.Run(RunOptions{Program: prog, SampleEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	th := SpeedThreshold(res.Samples, func(s Sample) float64 { return s.AngSpeed }, 0.05, 20)
	t.Logf("angular threshold ≈ %.1f deg/s (paper: 16-18), up fraction %.3f",
		th*180/math.Pi, res.UpFraction)
	deg := th * 180 / math.Pi
	if deg < 8 || deg > 40 {
		t.Errorf("angular speed threshold = %.1f deg/s, want in the ≈16-18 regime", deg)
	}
}
