package cyclops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cyclops/internal/core"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/parallel"
	"cyclops/internal/pointing"
	"cyclops/internal/sim"
)

// This file contains one runner per table/figure in the paper's
// evaluation. Each returns a structured result whose Render method prints
// the same rows/series the paper reports, so the benchmark harness and the
// cyclops-bench binary share a single implementation.

// ---------------------------------------------------------------- Fig 3 —

// Fig3Result holds the headset speed CDFs of §2.2.
type Fig3Result struct {
	// LinearCDF and AngularCDF are (speed, cumulative fraction) pairs;
	// linear in m/s, angular in rad/s.
	LinearX, LinearY   []float64
	AngularX, AngularY []float64
	P95LinearCmS       float64
	P95AngularDegS     float64
}

// Fig3 computes the speed CDFs over n synthetic viewing traces (the paper
// uses its own user study; we use the Fig 3-calibrated generator).
func Fig3(seed int64, n int) Fig3Result {
	var lin, ang []float64
	for i := 0; i < n; i++ {
		tr := GenerateTrace(seed, i, time.Minute)
		l, a := tr.Speeds()
		lin = append(lin, l...)
		ang = append(ang, a...)
	}
	sort.Float64s(lin)
	sort.Float64s(ang)
	cdf := func(v []float64, points int) (xs, ys []float64) {
		if len(v) == 0 {
			return nil, nil
		}
		for k := 0; k <= points; k++ {
			idx := k * (len(v) - 1) / points
			xs = append(xs, v[idx])
			ys = append(ys, float64(idx+1)/float64(len(v)))
		}
		return xs, ys
	}
	var r Fig3Result
	r.LinearX, r.LinearY = cdf(lin, 20)
	r.AngularX, r.AngularY = cdf(ang, 20)
	if len(lin) > 0 {
		r.P95LinearCmS = lin[int(0.95*float64(len(lin)-1))] * 100
		r.P95AngularDegS = ang[int(0.95*float64(len(ang)-1))] * 180 / math.Pi
	}
	return r
}

// Render prints the CDFs.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: VRH speed CDFs (paper: ≤14 cm/s linear, ≤19 deg/s angular in normal use)\n")
	fmt.Fprintf(&b, "  P95 linear  = %5.1f cm/s\n", r.P95LinearCmS)
	fmt.Fprintf(&b, "  P95 angular = %5.1f deg/s\n", r.P95AngularDegS)
	b.WriteString("  linear cm/s : CDF   |  angular deg/s : CDF\n")
	for i := range r.LinearX {
		fmt.Fprintf(&b, "  %8.2f : %.3f  |  %8.2f : %.3f\n",
			r.LinearX[i]*100, r.LinearY[i],
			r.AngularX[i]*180/math.Pi, r.AngularY[i])
	}
	return b.String()
}

// -------------------------------------------------------------- Table 1 —

// Table1Row is one link design's tolerance set.
type Table1Row struct {
	Design        string
	TXAngularMrad float64
	RXAngularMrad float64
	LateralMM     float64
	PeakPowerDBm  float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Collimated Table1Row
	Diverging  Table1Row
}

// Table1 evaluates the collimated and diverging 10G designs at the 20 mm
// operating point.
func Table1() Table1Result {
	row := func(c optics.LinkConfig) Table1Row {
		t := c.Tolerances()
		return Table1Row{
			Design:        c.Name,
			TXAngularMrad: optics.ToMrad(t.TXAngular),
			RXAngularMrad: optics.ToMrad(t.RXAngular),
			LateralMM:     optics.ToMM(t.Lateral),
			PeakPowerDBm:  t.PeakPowerDBm,
		}
	}
	return Table1Result{
		Collimated: row(optics.Collimated10G),
		Diverging:  row(optics.Diverging10G),
	}
}

// Render prints the Table 1 rows (paper values in parentheses).
func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: link movement tolerances, 20 mm beam at RX\n")
	b.WriteString("                          Collimated        Diverging\n")
	fmt.Fprintf(&b, "  TX angular tolerance    %5.2f mrad (2.00)  %5.2f mrad (15.81)\n",
		r.Collimated.TXAngularMrad, r.Diverging.TXAngularMrad)
	fmt.Fprintf(&b, "  RX angular tolerance    %5.2f mrad (2.28)  %5.2f mrad (5.77)\n",
		r.Collimated.RXAngularMrad, r.Diverging.RXAngularMrad)
	fmt.Fprintf(&b, "  Peak received power     %+5.1f dBm (15)    %+5.1f dBm (-10)\n",
		r.Collimated.PeakPowerDBm, r.Diverging.PeakPowerDBm)
	return b.String()
}

// --------------------------------------------------------------- Fig 11 —

// Fig11Point is one beam-diameter sample of the sweep.
type Fig11Point struct {
	DiameterMM    float64
	TXAngularMrad float64
	RXAngularMrad float64
	PeakPowerDBm  float64
}

// Fig11Result is the angular-tolerance-vs-diameter sweep.
type Fig11Result struct {
	Points []Fig11Point
	// BestDiameterMM is where the RX tolerance peaks (paper: 16 mm at
	// 5.77 mrad).
	BestDiameterMM float64
	BestRXTolMrad  float64
}

// Fig11 sweeps the diverging design's beam diameter at RX.
func Fig11() Fig11Result {
	var r Fig11Result
	for d := 6.0; d <= 26.0001; d += 1 {
		c := optics.Diverging10G.WithRXDiameter(optics.MM(d))
		p := Fig11Point{
			DiameterMM:    d,
			TXAngularMrad: optics.ToMrad(c.TXAngularTolerance()),
			RXAngularMrad: optics.ToMrad(c.RXAngularTolerance()),
			PeakPowerDBm:  c.PeakReceivedPowerDBm(),
		}
		r.Points = append(r.Points, p)
		if p.RXAngularMrad > r.BestRXTolMrad {
			r.BestRXTolMrad, r.BestDiameterMM = p.RXAngularMrad, d
		}
	}
	return r
}

// Render prints the sweep series.
func (r Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 11: angular tolerance vs beam diameter at RX\n")
	b.WriteString("  D(mm)   TX(mrad)   RX(mrad)   peak(dBm)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %5.0f   %8.2f   %8.2f   %+8.2f\n",
			p.DiameterMM, p.TXAngularMrad, p.RXAngularMrad, p.PeakPowerDBm)
	}
	fmt.Fprintf(&b, "  RX tolerance peaks at %.0f mm: %.2f mrad (paper: 16 mm, 5.77 mrad)\n",
		r.BestDiameterMM, r.BestRXTolMrad)
	return b.String()
}

// -------------------------------------------------------------- Table 2 —

// Table2Result reproduces the calibration-error table.
type Table2Result struct {
	Report CalibrationReport
}

// Table2 runs the full two-stage calibration on a fresh system.
func Table2(seed int64) (Table2Result, error) {
	sys := NewSystem(Link10G, seed)
	rep, err := sys.Calibrate()
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{Report: rep}, nil
}

// Render prints the Table 2 rows (paper values in parentheses).
func (r Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: GMA model estimation errors\n")
	b.WriteString("                      Avg. Error          Max. Error\n")
	fmt.Fprintf(&b, "  First stage (TX)    %5.2f mm (1.24)    %5.2f mm (5.30)\n",
		r.Report.Stage1TX.AvgError*1e3, r.Report.Stage1TX.MaxError*1e3)
	fmt.Fprintf(&b, "  First stage (RX)    %5.2f mm (1.90)    %5.2f mm (5.41)\n",
		r.Report.Stage1RX.AvgError*1e3, r.Report.Stage1RX.MaxError*1e3)
	fmt.Fprintf(&b, "  Combined (TX)       %5.2f mm (2.18)    %5.2f mm (4.07)\n",
		r.Report.Combined.TXAvg*1e3, r.Report.Combined.TXMax*1e3)
	fmt.Fprintf(&b, "  Combined (RX)       %5.2f mm (4.54)    %5.2f mm (6.50)\n",
		r.Report.Combined.RXAvg*1e3, r.Report.Combined.RXMax*1e3)
	fmt.Fprintf(&b, "  (%d mapping tuples)\n", r.Report.Tuples)
	return b.String()
}

// ----------------------------------------------------------- §5.2 TP —

// TPResult reproduces the §5.2 TP evaluation.
type TPResult struct {
	// Tracking cadence.
	MeanReportInterval time.Duration
	SlowReportFraction float64 // reports in 14–15 ms
	// Stationary tracking noise over a long observation.
	StationaryLocationMM float64
	StationaryOrientMrad float64
	// Pointing latency (hardware realignment).
	MeanTPLatency time.Duration
	// Lock tests: move randomly, lock, realign with learned TP, compare
	// against the optimally aligned link.
	LockTests        int
	LockTestsOptimal int     // achieved optimal throughput
	MeanPowerGapDB   float64 // TP-aligned power below peak (paper: 3–4 dB)
}

// TPEvaluation runs the §5.2 measurements on a calibrated system.
func TPEvaluation(seed int64) (TPResult, error) {
	sys := NewSystem(Link10G, seed)
	if _, err := sys.Calibrate(); err != nil {
		return TPResult{}, err
	}
	var r TPResult

	// Tracking cadence over many intervals.
	const nIntervals = 5000
	var sum time.Duration
	var slow int
	for i := 0; i < nIntervals; i++ {
		iv := sys.Tracker.NextInterval()
		sum += iv
		if iv >= 14*time.Millisecond {
			slow++
		}
	}
	r.MeanReportInterval = sum / nIntervals
	r.SlowReportFraction = float64(slow) / nIntervals

	// Stationary noise: the paper watched 30 minutes; the spread
	// converges long before that, so we sample the equivalent number of
	// reports in batches.
	pose := DefaultHeadsetPose()
	base := sys.Tracker.Report(pose, 0)
	var maxLoc, maxAng float64
	for i := 0; i < 20000; i++ {
		rep := sys.Tracker.Report(pose, 0)
		lin, ang := base.Pose.Delta(rep.Pose)
		maxLoc = math.Max(maxLoc, lin)
		maxAng = math.Max(maxAng, ang)
	}
	r.StationaryLocationMM = maxLoc * 1e3
	r.StationaryOrientMrad = maxAng * 1e3

	// Lock tests.
	peak := sys.Plant.Config.PeakReceivedPowerDBm()
	poses := make([]geom.Pose, 0, 10)
	for i := 0; i < 10; i++ {
		poses = append(poses, randomLockPose(seed+int64(i)))
	}
	var gapSum float64
	var latSum time.Duration
	for i, p := range poses {
		sys.Plant.SetHeadset(p)
		if _, err := sys.PointNow(time.Duration(i)*time.Second, pointing.Voltages{}); err != nil {
			continue
		}
		got := sys.Plant.ReceivedPowerDBm()
		gapSum += peak - got
		r.LockTests++
		if got >= sys.Plant.Config.Transceiver.SensitivityDBm {
			r.LockTestsOptimal++
		}
		latSum += 1800 * time.Microsecond // DAQ + settle, cf. core.hardwareLatency
	}
	if r.LockTests > 0 {
		r.MeanPowerGapDB = gapSum / float64(r.LockTests)
		r.MeanTPLatency = latSum / time.Duration(r.LockTests)
	}
	return r, nil
}

func randomLockPose(seed int64) geom.Pose {
	// Deterministic scattered poses around the default.
	h := DefaultHeadsetPose()
	f := func(k int64) float64 {
		x := float64((seed*2654435761+k*40503)%1000)/1000 - 0.5
		return x
	}
	rot := geom.QuatFromAxisAngle(geom.V(f(1), f(2), f(3)+0.01), f(4)*0.2)
	return geom.NewPose(rot.Mul(h.Rot), h.Trans.Add(geom.V(f(5)*0.4, f(6)*0.4, f(7)*0.2)))
}

// Render prints the §5.2 numbers.
func (r TPResult) Render() string {
	var b strings.Builder
	b.WriteString("§5.2 TP evaluation\n")
	fmt.Fprintf(&b, "  tracking interval      %v mean, %.2f%% in 14-15 ms (paper: 12-13 ms, 0.7%%)\n",
		r.MeanReportInterval.Round(100*time.Microsecond), r.SlowReportFraction*100)
	fmt.Fprintf(&b, "  stationary noise       %.2f mm / %.2f mrad (paper: 1.79 / 0.41)\n",
		r.StationaryLocationMM, r.StationaryOrientMrad)
	fmt.Fprintf(&b, "  TP latency             %v (paper: 1-2 ms)\n", r.MeanTPLatency)
	fmt.Fprintf(&b, "  lock tests             %d/%d connected at optimal rate (paper: 10/10)\n",
		r.LockTestsOptimal, r.LockTests)
	fmt.Fprintf(&b, "  TP power below peak    %.1f dB (paper: 3-4 dB)\n", r.MeanPowerGapDB)
	return b.String()
}

// --------------------------------------------------- Fig 13 / 14 / 15 —

// MotionResult summarizes one throughput-vs-motion experiment.
type MotionResult struct {
	Label string
	// LinearThreshold / AngularThreshold are the highest speeds that
	// sustained the link (m/s, rad/s); zero when that axis was not
	// exercised.
	LinearThreshold  float64
	AngularThreshold float64
	MaxLinearSeen    float64
	MaxAngularSeen   float64
	UpFraction       float64
	MeanGoodputGbps  float64
	// Mixed marks a simultaneous-pair threshold (Fig 14/15 style).
	Mixed  bool
	Result RunResult
}

// Render prints the thresholds.
func (m MotionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", m.Label)
	if m.Mixed {
		fmt.Fprintf(&b, "  simultaneous: optimal ≤ %4.1f cm/s and ≤ %4.1f deg/s\n",
			m.LinearThreshold*100, m.AngularThreshold*180/math.Pi)
		fmt.Fprintf(&b, "  fastest aligned: %4.1f cm/s, %4.1f deg/s\n",
			m.MaxLinearSeen*100, m.MaxAngularSeen*180/math.Pi)
		fmt.Fprintf(&b, "  link up %.1f%% of run, mean goodput %.2f Gbps\n",
			m.UpFraction*100, m.MeanGoodputGbps)
		return b.String()
	}
	if m.LinearThreshold > 0 {
		fmt.Fprintf(&b, "  linear:  optimal ≤ %4.1f cm/s (connected up to %4.1f cm/s)\n",
			m.LinearThreshold*100, m.MaxLinearSeen*100)
	}
	if m.AngularThreshold > 0 {
		fmt.Fprintf(&b, "  angular: optimal ≤ %4.1f deg/s (connected up to %4.1f deg/s)\n",
			m.AngularThreshold*180/math.Pi, m.MaxAngularSeen*180/math.Pi)
	}
	fmt.Fprintf(&b, "  link up %.1f%% of run, mean goodput %.2f Gbps\n",
		m.UpFraction*100, m.MeanGoodputGbps)
	return b.String()
}

func summarizeRun(label string, res RunResult, wantLinear, wantAngular bool) MotionResult {
	m := MotionResult{Label: label, UpFraction: res.UpFraction, Result: res}
	var sum float64
	for _, w := range res.Windows {
		sum += w.Gbps
	}
	if len(res.Windows) > 0 {
		m.MeanGoodputGbps = sum / float64(len(res.Windows))
	}
	switch {
	case wantLinear && wantAngular:
		// Mixed motion: thresholds are a simultaneous pair along a
		// proportional frontier (§5.3's "simultaneous linear and
		// angular speeds of below ...").
		linMax := core.MaxSpeed(res.Samples, LinSpeedOf)
		angMax := core.MaxSpeed(res.Samples, AngSpeedOf)
		m.LinearThreshold, m.AngularThreshold =
			core.MixedSpeedThreshold(res.Samples, linMax, angMax, 40)
		m.MaxLinearSeen = linMax
		m.MaxAngularSeen = angMax
		m.Mixed = true
	case wantLinear:
		m.LinearThreshold = core.SpeedThreshold(res.Samples, LinSpeedOf, 0.05, 20)
		m.MaxLinearSeen = core.MaxSpeed(res.Samples, LinSpeedOf)
	case wantAngular:
		m.AngularThreshold = core.SpeedThreshold(res.Samples, AngSpeedOf, 0.05, 20)
		m.MaxAngularSeen = core.MaxSpeed(res.Samples, AngSpeedOf)
	}
	return m
}

// motionJob is one independent calibrate-and-run experiment: its own
// system (own seed), its own motion program. Jobs share nothing, so the
// experiment runners fan them out with parallel.MapErr.
type motionJob struct {
	label       string
	cfg         LinkConfig
	seed        int64
	program     Program
	wantLinear  bool
	wantAngular bool
}

// runMotionJobs calibrates and runs every job on its own system, in
// parallel, returning results in job order. Each job records into two
// registries of its own, one for the calibration and one for the run, and
// publishes them to reg (obs.Default() for the exported experiments) only
// after every job is done: calibration then run, in job order. That is
// the sequence of merges a serial run makes, so the float sums in reg do
// not depend on which job finishes first.
func runMotionJobs(jobs []motionJob, reg *obs.Registry) ([]MotionResult, error) {
	type jobOut struct {
		m          MotionResult
		calib, run obs.Snapshot
	}
	outs, err := parallel.MapErr(len(jobs), 0, func(i int) (jobOut, error) {
		j := jobs[i]
		sys := NewSystem(j.cfg, j.seed)
		calib := obs.NewRegistry()
		sys.Obs = calib
		if _, err := sys.Calibrate(); err != nil {
			return jobOut{}, err
		}
		res, err := sys.Run(RunOptions{
			Program:     j.program,
			SampleEvery: 5 * time.Millisecond,
			Metrics:     obs.NewRegistry(),
		})
		if err != nil {
			return jobOut{}, err
		}
		return jobOut{summarizeRun(j.label, res, j.wantLinear, j.wantAngular), calib.Snapshot(), res.Metrics}, nil
	})
	if err != nil {
		return nil, err
	}
	ms := make([]MotionResult, len(outs))
	for i, o := range outs {
		reg.Merge(o.calib)
		reg.Merge(o.run)
		ms[i] = o.m
	}
	return ms, nil
}

// fig13Jobs are the 10G pure-motion rigs: linear rail, rotation stage.
func fig13Jobs(seed int64) []motionJob {
	return []motionJob{
		{
			label: "Fig 13 (10G, pure linear)", cfg: Link10G, seed: seed,
			program: LinearRail(0.20, 0.10, 0.05, 10), wantLinear: true,
		},
		{
			label: "Fig 13 (10G, pure angular)", cfg: Link10G, seed: seed + 1000,
			program: RotationStage(0.30, 0.10, 0.05, 10), wantAngular: true,
		},
	}
}

// fig14Jobs is the 10G arbitrary-motion user study.
func fig14Jobs(seed int64) []motionJob {
	return []motionJob{{
		label: "Fig 14 (10G, arbitrary motion)", cfg: Link10G, seed: seed,
		program: HandHeld(0.6, 0.7, 60*time.Second, seed), wantLinear: true, wantAngular: true,
	}}
}

// fig15Jobs are the 25G rigs: pure linear, pure angular, mixed.
func fig15Jobs(seed int64) []motionJob {
	return []motionJob{
		{
			label: "Fig 15 (25G, pure linear)", cfg: Link25G, seed: seed,
			program: LinearRail(0.20, 0.10, 0.05, 10), wantLinear: true,
		},
		{
			label: "Fig 15 (25G, pure angular)", cfg: Link25G, seed: seed + 1000,
			program: RotationStage(0.30, 0.10, 0.05, 12), wantAngular: true,
		},
		{
			label: "Fig 15 (25G, arbitrary motion)", cfg: Link25G, seed: seed + 2000,
			program: HandHeld(0.45, 0.6, 60*time.Second, seed), wantLinear: true, wantAngular: true,
		},
	}
}

// Fig13 runs the 10G pure-motion experiments (linear rail, rotation
// stage), fanning the two independent rigs out in parallel. Paper:
// optimal ≤33 cm/s linear (up to 39.15), ≤16-18 deg/s angular (up to
// 18.95).
func Fig13(seed int64) (linear, angular MotionResult, err error) {
	out, err := runMotionJobs(fig13Jobs(seed), obs.Default())
	if err != nil {
		return
	}
	return out[0], out[1], nil
}

// Fig14 runs the 10G arbitrary-motion user study. Paper: optimal at
// simultaneous ≤30 cm/s and ≤16-18 deg/s.
func Fig14(seed int64) (MotionResult, error) {
	out, err := runMotionJobs(fig14Jobs(seed), obs.Default())
	if err != nil {
		return MotionResult{}, err
	}
	return out[0], nil
}

// Fig15 runs the 25G experiments — pure linear, pure angular, and mixed —
// as three independent rigs in parallel. Paper: optimal ≤25 cm/s or
// ≤25 deg/s pure; mixed ≤15 cm/s & 15-20 deg/s.
func Fig15(seed int64) (linear, angular, mixed MotionResult, err error) {
	out, err := runMotionJobs(fig15Jobs(seed), obs.Default())
	if err != nil {
		return
	}
	return out[0], out[1], out[2], nil
}

// -------------------------------------------------------------- Table 3 —

// Table3Result is the summary-of-results table.
type Table3Result struct {
	Pure10G  [2]float64 // linear m/s, angular rad/s
	Mixed10G [2]float64
	Pure25G  [2]float64
	Mixed25G [2]float64
}

// Table3 assembles the summary from the Fig 13–15 runs. The six rigs of
// the three figure groups are independent (disjoint seeds, own systems),
// so they run in parallel; their metrics reach obs.Default() per rig, in
// group order.
func Table3(seed int64) (Table3Result, error) {
	return table3(seed, obs.Default())
}

// table3 is Table3 publishing its metrics to reg.
func table3(seed int64, reg *obs.Registry) (Table3Result, error) {
	var t Table3Result
	jobs := append(append(fig13Jobs(seed), fig14Jobs(seed+10)...), fig15Jobs(seed+20)...)
	m, err := runMotionJobs(jobs, reg)
	if err != nil {
		return t, err
	}
	t.Pure10G = [2]float64{m[0].LinearThreshold, m[1].AngularThreshold}
	t.Mixed10G = [2]float64{m[2].LinearThreshold, m[2].AngularThreshold}
	t.Pure25G = [2]float64{m[3].LinearThreshold, m[4].AngularThreshold}
	t.Mixed25G = [2]float64{m[5].LinearThreshold, m[5].AngularThreshold}
	return t, nil
}

// Render prints Table 3 (paper values in parentheses).
func (t Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: tolerated speeds vs requirements (14 cm/s, 19 deg/s)\n")
	b.WriteString("              10G pure       10G mixed      25G pure       25G mixed\n")
	fmt.Fprintf(&b, "  linear      %4.0f cm/s (33) %4.0f cm/s (30) %4.0f cm/s (25) %4.0f cm/s (15)\n",
		t.Pure10G[0]*100, t.Mixed10G[0]*100, t.Pure25G[0]*100, t.Mixed25G[0]*100)
	deg := func(r float64) float64 { return r * 180 / math.Pi }
	fmt.Fprintf(&b, "  angular     %4.0f deg/s (17) %4.0f deg/s (16) %4.0f deg/s (25) %4.0f deg/s (17)\n",
		deg(t.Pure10G[1]), deg(t.Mixed10G[1]), deg(t.Pure25G[1]), deg(t.Mixed25G[1]))
	return b.String()
}

// --------------------------------------------------------------- Fig 16 —

// Fig16Result is the trace-driven availability study.
type Fig16Result struct {
	Corpus sim.CorpusResult
	// ScatteredFraction is the share of off-slots in frames with <10
	// off-slots (paper: >60 %).
	ScatteredFraction float64
	// EffectiveGbps is operational fraction × optimal goodput (paper:
	// ≈23 Gbps).
	EffectiveGbps float64
}

// Fig16 runs the §5.4 slot simulation over the 500-trace corpus with the
// paper's 25G constants. Both the corpus generation and the 500 trace
// simulations fan out across the default worker pool.
func Fig16(seed int64) Fig16Result {
	return Fig16Workers(seed, 0)
}

// Fig16Workers is Fig16 with an explicit worker count (≤ 0 means the
// parallel package default, 1 forces the serial path). The determinism
// contract holds: any worker count returns the identical Fig16Result.
func Fig16Workers(seed int64, workers int) Fig16Result {
	run, err := sim.RunCorpus(TraceSource(seed), sim.CorpusOptions{
		Params:       sim.Paper25G(),
		Workers:      workers,
		KeepPerTrace: true,
	})
	if err != nil {
		// A context-free clean corpus run has no error source.
		panic(err) //cyclops:panic-ok unreachable
	}
	corpus := sim.CorpusResult{
		PerTrace:       make([]sim.TraceResult, len(run.PerTrace)),
		MeanOnFraction: run.MeanOnFraction,
		MinOnFraction:  run.MinOnFraction,
		MaxOnFraction:  run.MaxOnFraction,
		Metrics:        run.Metrics,
	}
	for i, r := range run.PerTrace {
		corpus.PerTrace[i] = r.TraceResult
	}
	var off, scattered float64
	for _, r := range corpus.PerTrace {
		off += float64(r.OffSlots)
		scattered += r.ScatteredOffFraction(10) * float64(r.OffSlots)
	}
	res := Fig16Result{Corpus: corpus}
	if off > 0 {
		res.ScatteredFraction = scattered / off
	}
	res.EffectiveGbps = corpus.MeanOnFraction * Link25G.Transceiver.OptimalGoodputGbps
	return res
}

// Render prints the Fig 16 summary and CDF.
func (r Fig16Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 16: trace-driven availability (25G constants, 500 traces)\n")
	fmt.Fprintf(&b, "  operational slots: mean %.2f%% (paper 98.6%%), range %.2f%%-%.2f%% (paper 95-99.98%%)\n",
		r.Corpus.MeanOnFraction*100, r.Corpus.MinOnFraction*100, r.Corpus.MaxOnFraction*100)
	fmt.Fprintf(&b, "  effective bandwidth ≈ %.1f Gbps (paper ≈23)\n", r.EffectiveGbps)
	fmt.Fprintf(&b, "  off-slots in light frames (<10 off): %.0f%% (paper >60%%)\n", r.ScatteredFraction*100)
	xs, ys := r.Corpus.DisconnectionCDF(12)
	b.WriteString("  CDF of per-trace disconnected %:\n")
	for i := range xs {
		fmt.Fprintf(&b, "    ≤%5.2f%% of slots off : %.3f of traces\n", xs[i], ys[i])
	}
	return b.String()
}

// -------------------------------------------------------- fig16-faults —

// Fig16FaultsCell is one point of the chaos sweep: the 500-trace corpus
// under a fault config with the given occlusion rate × duration (plus the
// fixed background of tracker blackouts and stuck-galvo windows).
type Fig16FaultsCell struct {
	OcclusionPerMin float64
	OcclusionDur    time.Duration
	MeanOnFraction  float64
	MinOnFraction   float64
	Outages         int
	// MeanOutage is the mean blocked-episode length (occlusion window plus
	// the re-lock tail) across the corpus.
	MeanOutage time.Duration
}

// Fig16FaultsResult is the fig16-faults chaos experiment: Fig 16's
// availability study re-run under deterministic fault injection.
type Fig16FaultsResult struct {
	// BaselineOnFraction is the fault-free corpus mean — the same number
	// Fig 16 reports, computed on the same traces.
	BaselineOnFraction float64
	Cells              []Fig16FaultsCell
}

// fig16FaultsSweep is the occlusion rate × duration grid. The background
// rates (blackout, stuck) stay fixed so the sweep isolates occlusion.
var fig16FaultsSweep = struct {
	rates []float64
	durs  []time.Duration
}{
	rates: []float64{0.5, 2},
	durs:  []time.Duration{100 * time.Millisecond, 500 * time.Millisecond},
}

// occlusionFaults is the fault schedule of the fig16 occlusion sweeps:
// 25–45 dB occlusions of exactly dur at perMin per minute over a fixed
// background of blackouts and stuck-galvo episodes.
func occlusionFaults(perMin float64, dur time.Duration) fault.Config {
	return fault.Config{
		Occlusion:        fault.ClassConfig{PerMin: perMin, MinDur: dur, MaxDur: dur},
		OcclusionDepthDB: [2]float64{25, 45},
		OcclusionRamp:    10 * time.Millisecond,
		Blackout:         fault.ClassConfig{PerMin: 1, MinDur: 50 * time.Millisecond, MaxDur: 150 * time.Millisecond},
		Stuck:            fault.ClassConfig{PerMin: 0.5, MinDur: 100 * time.Millisecond, MaxDur: 300 * time.Millisecond},
	}
}

// Fig16Faults runs the chaos sweep on the default worker pool
// (parallel.SetDefaultWorkers). The whole sweep is a pure function of the
// seed: trace generation, per-trace fault plans, and the slot model are
// all seeded, so every worker count returns the identical
// Fig16FaultsResult bit for bit.
func Fig16Faults(seed int64) (Fig16FaultsResult, error) {
	// The sweep reuses one corpus across every cell, so materialize it
	// once and stream the chaos runs aggregate-only.
	traces := sim.Materialize(TraceSource(seed), 0)
	base, err := sim.RunCorpus(sim.TraceSlice(traces), sim.CorpusOptions{
		Params: sim.Paper25G(),
	})
	if err != nil {
		return Fig16FaultsResult{}, err
	}
	res := Fig16FaultsResult{BaselineOnFraction: base.MeanOnFraction}
	p := sim.PaperChaos25G()
	for _, rate := range fig16FaultsSweep.rates {
		for _, dur := range fig16FaultsSweep.durs {
			c, err := sim.RunCorpus(sim.TraceSlice(traces), sim.CorpusOptions{
				Chaos: &sim.CorpusChaos{Config: occlusionFaults(rate, dur), Seed: seed + 1, Params: p},
			})
			if err != nil {
				return res, err
			}
			cell := Fig16FaultsCell{
				OcclusionPerMin: rate,
				OcclusionDur:    dur,
				MeanOnFraction:  c.MeanOnFraction,
				MinOnFraction:   c.MinOnFraction,
				Outages:         c.Outages,
			}
			if c.Outages > 0 {
				cell.MeanOutage = time.Duration(float64(c.BlockedSlots)/float64(c.Outages)) * p.Slot
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Render prints the chaos sweep table.
func (r Fig16FaultsResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 16-faults: availability under injected occlusion (25G constants, 500 traces)\n")
	fmt.Fprintf(&b, "  baseline (no faults): mean on %.2f%%\n", r.BaselineOnFraction*100)
	b.WriteString("  occl rate  duration   mean on   worst    outages  mean outage\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %5.1f/min  %6s   %6.2f%%  %6.2f%%  %7d  %9s\n",
			c.OcclusionPerMin, c.OcclusionDur, c.MeanOnFraction*100, c.MinOnFraction*100,
			c.Outages, c.MeanOutage.Round(time.Millisecond))
	}
	return b.String()
}

// ------------------------------------------------------ fig16-handover —

// Fig16HandoverCell is one point of the handover sweep: the 500-trace
// corpus under an occlusion rate × duration, served by TXCount ceiling
// units at the given ring spacing. TXCount == 1 is the no-handover
// baseline (SpacingM is 0 there: a single TX has no ring).
type Fig16HandoverCell struct {
	TXCount         int
	SpacingM        float64
	OcclusionPerMin float64
	OcclusionDur    time.Duration
	MeanOnFraction  float64
	MinOnFraction   float64
	// ChaosAvailability is 1 − blocked/total slots: the share of slot time
	// not lost to occlusion episodes — re-lock tails for unrescued ones,
	// the ~2 ms handover slew for rescued ones. This is the occlusion
	// layer's own availability, independent of baseline pointing losses.
	ChaosAvailability float64
	Outages           int
	Handovers         int
}

// Fig16HandoverResult is the fig16-handover experiment: the fig16-faults
// chaos study re-run with make-before-break multi-TX handover, sweeping
// TX count and ceiling spacing against occlusion pressure.
type Fig16HandoverResult struct {
	BaselineOnFraction float64
	Cells              []Fig16HandoverCell
}

// fig16HandoverGrid parameterizes the sweep so the determinism suite can
// push a trimmed grid through the identical pipeline.
type fig16HandoverGrid struct {
	txCounts []int
	spacings []float64
	occl     []struct {
		rate float64
		dur  time.Duration
	}
}

// fig16HandoverSweep: a mild and a harsh occlusion regime (the corners of
// the fig16-faults grid) × 1/2/4 TXs × tight and wide ceiling rings.
var fig16HandoverSweep = fig16HandoverGrid{
	txCounts: []int{1, 2, 4},
	spacings: []float64{0.6, 1.4},
	occl: []struct {
		rate float64
		dur  time.Duration
	}{
		{0.5, 100 * time.Millisecond},
		{2, 500 * time.Millisecond},
	},
}

// Fig16Handover runs the handover sweep on the default worker pool. Like
// fig16-faults, the whole sweep is a pure function of the seed — every
// worker count returns the identical result bit for bit. Every cell
// reuses the same fault plans (same seed), so the TX-count and spacing
// knobs are the only thing that varies across cells of one occlusion
// regime.
func Fig16Handover(seed int64) (Fig16HandoverResult, error) {
	return fig16HandoverRun(seed, 0, fig16HandoverSweep)
}

func fig16HandoverRun(seed int64, workers int, grid fig16HandoverGrid) (Fig16HandoverResult, error) {
	traces := sim.Materialize(TraceSource(seed), workers)
	base, err := sim.RunCorpus(sim.TraceSlice(traces), sim.CorpusOptions{
		Params:  sim.Paper25G(),
		Workers: workers,
	})
	if err != nil {
		return Fig16HandoverResult{}, err
	}
	res := Fig16HandoverResult{BaselineOnFraction: base.MeanOnFraction}
	for _, oc := range grid.occl {
		cfg := occlusionFaults(oc.rate, oc.dur)
		for _, tx := range grid.txCounts {
			for si, spacing := range grid.spacings {
				if tx <= 1 && si > 0 {
					break // a single TX has no ring: one baseline cell per regime
				}
				p := sim.PaperChaos25G()
				p.TXCount = tx
				p.HandoverDark = 2 * time.Millisecond
				p.StandbyBlockProb = sim.StandbyBlockProbForSpacing(spacing)
				c, err := sim.RunCorpus(sim.TraceSlice(traces), sim.CorpusOptions{
					Chaos:   &sim.CorpusChaos{Config: cfg, Seed: seed + 1, Params: p},
					Workers: workers,
				})
				if err != nil {
					return res, err
				}
				cell := Fig16HandoverCell{
					TXCount:         tx,
					SpacingM:        spacing,
					OcclusionPerMin: oc.rate,
					OcclusionDur:    oc.dur,
					MeanOnFraction:  c.MeanOnFraction,
					MinOnFraction:   c.MinOnFraction,
					Outages:         c.Outages,
					Handovers:       c.Handovers,
				}
				if tx <= 1 {
					cell.SpacingM = 0
				}
				if c.Slots > 0 {
					cell.ChaosAvailability = 1 - float64(c.BlockedSlots)/float64(c.Slots)
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

// Render prints the handover sweep and the TXs-per-headset cost curve.
func (r Fig16HandoverResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 16-handover: multi-TX make-before-break vs occlusion (25G constants, 500 traces)\n")
	fmt.Fprintf(&b, "  baseline (no faults): mean on %.2f%%\n", r.BaselineOnFraction*100)
	b.WriteString("  txs  spacing  occl rate  duration   mean on   worst   chaos avail  outages  handovers\n")
	for _, c := range r.Cells {
		spacing := "    —"
		if c.TXCount > 1 {
			spacing = fmt.Sprintf("%4.1fm", c.SpacingM)
		}
		fmt.Fprintf(&b, "  %3d  %s  %7.1f/min  %6s   %6.2f%%  %6.2f%%     %7.3f%%  %7d  %9d\n",
			c.TXCount, spacing, c.OcclusionPerMin, c.OcclusionDur,
			c.MeanOnFraction*100, c.MinOnFraction*100, c.ChaosAvailability*100,
			c.Outages, c.Handovers)
	}
	// Cost curve: TXs per headset vs nines of occlusion-layer availability,
	// at the harsh corner (2/min × 500 ms), wide spacing for multi-TX.
	var harsh []Fig16HandoverCell
	for _, c := range r.Cells {
		if c.OcclusionPerMin == 2 && c.OcclusionDur == 500*time.Millisecond &&
			(c.TXCount <= 1 || c.SpacingM == 1.4) {
			harsh = append(harsh, c)
		}
	}
	if len(harsh) > 0 {
		b.WriteString("  cost curve (2.0/min × 500ms, 1.4 m ring):\n")
		b.WriteString("    txs  chaos avail      nines\n")
		for _, c := range harsh {
			nines := math.Inf(1)
			if c.ChaosAvailability < 1 {
				nines = -math.Log10(1 - c.ChaosAvailability)
			}
			fmt.Fprintf(&b, "    %3d     %8.4f%%  %9.2f\n", c.TXCount, c.ChaosAvailability*100, nines)
		}
	}
	return b.String()
}

// --------------------------------------------------- §4.3 convergence —

// ConvergenceResult records the G′ and P iteration statistics.
type ConvergenceResult struct {
	MeanPIters      float64
	MeanGPrimeIters float64
	Points          int
	Failures        int
}

// Convergence measures pointing convergence over a run with mixed motion —
// the §4.3 claim that G′ converges in 2–4 iterations and P in 2–5.
func Convergence(seed int64) (ConvergenceResult, error) {
	sys := NewSystem(Link10G, seed)
	sys.UseOracleModels()
	res, err := sys.Run(RunOptions{
		Program: HandHeld(0.3, 0.6, 10*time.Second, seed),
	})
	if err != nil {
		return ConvergenceResult{}, err
	}
	return ConvergenceResult{
		MeanPIters:      res.MeanPointIters(),
		MeanGPrimeIters: res.MeanGPrimeIters(),
		Points:          res.Points,
		Failures:        res.PointFailures,
	}, nil
}

// Render prints the convergence statistics.
func (c ConvergenceResult) Render() string {
	return fmt.Sprintf("§4.3 convergence: P %.1f iters (paper 2-5), G' %.1f iters (paper 2-4), %d solves, %d failures\n",
		c.MeanPIters, c.MeanGPrimeIters, c.Points, c.Failures)
}
