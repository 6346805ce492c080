package core

import (
	"fmt"
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/pointing"
	"cyclops/internal/vrh"
)

// tick is core.Run's simulation step: 1 ms, the paper's slot resolution.
const tick = time.Millisecond

// RunOptions configures one experiment run. The zero value of every field
// except Program means "use the documented default"; Validate rejects
// nonsensical values instead of silently patching them.
type RunOptions struct {
	// Program drives the true headset pose. Required — there is no
	// default motion.
	Program motion.Program
	// Duration caps the run. Default (0): the program's own duration.
	Duration time.Duration
	// SampleEvery controls how often a Sample is recorded. Default (0):
	// every 1 ms tick.
	SampleEvery time.Duration
	// ReportEvery overrides the tracker's own 12–13 ms report cadence
	// with a fixed interval — the §6 "custom VRH-T with much higher
	// tracking frequency" scenario. Default (0): the tracker's cadence.
	// Intervals shorter than the realignment latency make reports arrive
	// while a mirror command is still in flight.
	ReportEvery time.Duration
	// DisableTP freezes the mirrors at their initial alignment — the
	// no-tracking baseline ablation.
	DisableTP bool
	// Metrics, when non-nil, is the registry this run records into (the
	// run's own contribution is still embedded as RunResult.Metrics).
	// Default (nil): System.Obs, and when that is nil too the run
	// records into a private registry whose snapshot is published to
	// obs.Default().
	Metrics *obs.Registry
	// Faults, when non-nil and non-empty, is the deterministic fault
	// schedule injected into this run; it also arms the Supervisor
	// recovery layer (link-down detection, backoff'd solve retries,
	// spiral reacquisition, graceful degradation). Default (nil), and an
	// empty schedule: no injection, no supervisor — bit-identical to the
	// historical run loop.
	Faults *fault.Schedule
	// Recovery tunes the supervisor's restart jitter; the zero value
	// means the documented default. Consulted only when Faults is armed —
	// it tunes a layer Faults arms rather than arming anything itself,
	// which is why it is a value, not a pointer arm.
	//cyclops:contract-ok tuning sub-struct for the Faults-gated supervisor, not an opt-in feature arm; zero value = documented defaults
	Recovery RecoveryOptions
	// SolveGate, when non-nil, arms pose-delta solver gating: a tracking
	// report whose pose has moved less than the gate's tolerance cone
	// (gateMaxTrans, gateMaxAngle) since the last accepted solve skips the
	// full P iteration and lets the in-flight (or settled) mirror command
	// stand. Default (nil): every report runs through P, bit-identical to
	// the historical loop; arming it trades bounded extra pointing error
	// (below the beam's own capture tolerance) for skipped solves on
	// near-static poses.
	SolveGate *SolveGateOptions
	// Handover, when non-nil, arms make-before-break multi-TX recovery:
	// standby ceiling transmitters are kept pre-pointed and the run
	// switches to the best clear one when the active path goes dark,
	// paying one realignment latency instead of the 3 s SFP re-lock.
	// Requires an armed fault schedule (handover is a recovery layer —
	// without faults there is nothing to recover from). Default (nil):
	// single-TX, bit-identical to the historical run loop.
	Handover *HandoverOptions
	// Hybrid, when non-nil, arms the hybrid FSO + mmWave link policy: the
	// baseline 802.11ad link runs side by side over its own netem stream
	// and delivered traffic fails over to it on a sustained SLO breach,
	// re-admitting FSO after re-lock plus policy.ClearAfter. Unlike Handover
	// it does not require faults — a breach can come from misalignment
	// alone. Default (nil): FSO only, bit-identical to the historical run
	// loop (results and metrics exposition).
	Hybrid *HybridOptions
}

// SolveGateOptions arm pose-delta solver gating (RunOptions.SolveGate).
// Setting the pointer arms the gate; its tolerance cone is fixed.
type SolveGateOptions struct{}

// The solve gate's tolerance cone.
const (
	// gateMaxTrans is the translation delta (meters) below which a report
	// is inside the cone: 0.5 mm, well under the millimeter-scale lateral
	// capture tolerance of §5.4, so a skipped solve cannot by itself walk
	// the beam off the aperture.
	gateMaxTrans = 0.5e-3
	// gateMaxAngle is the rotation delta (radians) below which a report is
	// inside the cone: 1 mrad, the same order as the solver's own voltage
	// tolerance mapped through the mirror gain.
	gateMaxAngle = 1e-3
)

// HandoverOptions configure the multi-TX recovery path.
type HandoverOptions struct {
	// Standbys are the standby transmitter plants (handover.StandbysFor
	// builds them); each shares the primary's RX assembly identity and
	// hosts its own TX hardware at its own ceiling mount.
	Standbys []*link.Plant
	// StandbyFaults gives each standby path its own deterministic fault
	// schedule (nil entries mean a clear path). Must be empty or match
	// len(Standbys); the primary path's schedule is RunOptions.Faults.
	StandbyFaults []*fault.Schedule
}

// Validate reports whether the options are usable: Program must be set,
// durations and RestartJitterV must be non-negative (zero always means
// "default", never "disable"), and every fault schedule must be sorted
// and well-formed. System.Run calls it before touching any state.
func (o RunOptions) Validate() error {
	if o.Program == nil {
		return fmt.Errorf("core: invalid RunOptions: Program is nil")
	}
	if o.Duration < 0 {
		return fmt.Errorf("core: invalid RunOptions: negative Duration %v", o.Duration)
	}
	if o.SampleEvery < 0 {
		return fmt.Errorf("core: invalid RunOptions: negative SampleEvery %v", o.SampleEvery)
	}
	if o.ReportEvery < 0 {
		return fmt.Errorf("core: invalid RunOptions: negative ReportEvery %v", o.ReportEvery)
	}
	if j := o.Recovery.RestartJitterV; !(j >= 0) || math.IsInf(j, 1) {
		return fmt.Errorf("core: invalid RunOptions: Recovery.RestartJitterV %v must be finite and non-negative", j)
	}
	if err := validateWindows(o.Faults); err != nil {
		return fmt.Errorf("core: invalid RunOptions: %w", err)
	}
	if h := o.Handover; h != nil {
		if len(h.Standbys) == 0 {
			return fmt.Errorf("core: invalid RunOptions: Handover armed with no standby TXs")
		}
		if o.Faults.Empty() {
			return fmt.Errorf("core: invalid RunOptions: Handover requires an armed fault schedule")
		}
		if n := len(h.StandbyFaults); n != 0 && n != len(h.Standbys) {
			return fmt.Errorf("core: invalid RunOptions: %d StandbyFaults for %d standbys",
				n, len(h.Standbys))
		}
		for k, f := range h.StandbyFaults {
			if err := validateWindows(f); err != nil {
				return fmt.Errorf("core: invalid RunOptions: standby %d %w", k, err)
			}
		}
	}
	return nil
}

// validateWindows rejects a malformed or unsorted fault schedule (nil is
// the clear path).
func validateWindows(s *fault.Schedule) error {
	if s == nil {
		return nil
	}
	for i, w := range s.Windows {
		if w.Start < 0 || w.End < w.Start {
			return fmt.Errorf("fault window %d malformed (%v-%v)", i, w.Start, w.End)
		}
		// Schedule lookups stop at the first window that starts later, so
		// an unsorted schedule would silently drop windows.
		if i > 0 && w.Start < s.Windows[i-1].Start {
			return fmt.Errorf("fault window %d starts at %v, before window %d (%v): windows must be sorted by Start",
				i, w.Start, i-1, s.Windows[i-1].Start)
		}
	}
	return nil
}

// Sample is one recorded instant of a run.
type Sample struct {
	At       time.Duration
	PowerDBm float64
	// Up is the SFP/NIC link state (includes the multi-second re-lock
	// after a loss of signal).
	Up bool
	// PowerOK reports whether instantaneous optical power clears the
	// receiver sensitivity — the alignment-capability signal, free of
	// re-lock hysteresis. Speed-threshold analysis uses this, exactly as
	// the paper leans on its received-power subplots (§5.3): once the
	// beam realigns the light is fine even while the SFP still re-locks.
	PowerOK bool
	// LinSpeed (m/s) and AngSpeed (rad/s) are the speeds implied by the
	// two most recent tracking reports — the same speed estimate the
	// paper's 50 ms windows use.
	LinSpeed, AngSpeed float64
	// Degraded marks ticks the supervisor spent in the DEGRADED state
	// (outage longer than the supervisor's 500 ms degradeAfter): the run kept
	// going, but traffic accounting was frozen and the sample should not
	// count against alignment quality. Always false without fault
	// injection.
	Degraded bool
}

// RunResult holds everything a run produced.
type RunResult struct {
	Samples []Sample
	// Windows are the 50 ms iperf-style throughput measurements.
	Windows []netem.Window
	// Disconnections counts up→down transitions.
	Disconnections int
	// UpFraction is the fraction of ticks with the link up.
	UpFraction float64
	// Pointing statistics.
	Points           int
	PointFailures    int
	TotalPointIters  int
	TotalGPrimeIters int
	// SolvesSkipped counts tracking reports the pose-delta gate answered
	// without a P solve. Always zero unless RunOptions.SolveGate is
	// enabled.
	SolvesSkipped int
	// TPLatency is the realignment latency applied after each report
	// (DAQ + mirror settle), as measured from the devices.
	MeanTPLatency time.Duration
	// Outages / Reacquired count the supervisor's link-down episodes and
	// how many recovered within the run; DegradedTicks counts ticks
	// spent in the DEGRADED state. All zero without fault injection.
	Outages       int
	Reacquired    int
	DegradedTicks int
	// Handovers counts make-before-break TX switches (failbacks to the
	// primary included). Always zero without RunOptions.Handover.
	Handovers int
	// Hybrid is the link policy's contribution: failovers, re-admits,
	// time on the mmWave secondary, and the delivered availability across
	// both media. Always nil without RunOptions.Hybrid (on hybrid runs,
	// Windows and the netem metrics follow the *delivered* stream —
	// switching medium with the policy — while UpFraction still reports
	// the FSO link's own state).
	Hybrid *HybridStats
	// Metrics is this run's own observability contribution (a diff
	// against the registry's state when Run started, so shared
	// registries still yield per-run numbers).
	Metrics obs.Snapshot
}

// MeanPointIters returns the average P iterations per realignment.
func (r RunResult) MeanPointIters() float64 {
	if r.Points == 0 {
		return 0
	}
	return float64(r.TotalPointIters) / float64(r.Points)
}

// MeanGPrimeIters returns the average G′ iterations per G′ solve (two
// solves per P iteration).
func (r RunResult) MeanGPrimeIters() float64 {
	if r.TotalPointIters == 0 {
		return 0
	}
	return float64(r.TotalGPrimeIters) / float64(2*r.TotalPointIters)
}

// Run executes the experiment loop: at every tick the headset follows the
// program; on the tracker's own cadence (12–13 ms) a report arrives and
// the controller re-solves P (warm-started from the current voltages) and
// commands the mirrors, which settle after the hardware latency; the link
// monitor and traffic stream observe the resulting power each tick.
func (s *System) Run(opts RunOptions) (RunResult, error) {
	if !s.calibrated {
		return RunResult{}, fmt.Errorf("core: system not calibrated")
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	if h := opts.Handover; h != nil {
		// Every TX lights the one RX SFP, so each tick's light verdict is
		// taken at one sensitivity, whichever TX is active.
		want := s.Plant.Config.Transceiver.SensitivityDBm
		for k, p := range h.Standbys {
			if got := p.Config.Transceiver.SensitivityDBm; got != want {
				return RunResult{}, fmt.Errorf("core: invalid RunOptions: standby %d receiver sensitivity %v dBm, the primary's is %v dBm", k, got, want)
			}
		}
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = opts.Program.Duration()
	}
	sampleEvery := opts.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = tick
	}

	// Registry resolution: RunOptions.Metrics, else System.Obs, else a
	// private registry published to the process default at the end.
	reg := opts.Metrics
	if reg == nil {
		reg = s.Obs
	}
	publish := reg == nil
	if publish {
		reg = obs.NewRegistry()
	}
	startSnap := reg.Snapshot()
	rm := newRunMetrics(reg)
	prevPlantMetrics := s.Plant.Metrics
	s.Plant.Metrics = link.NewPlantMetrics(reg)
	defer func() { s.Plant.Metrics = prevPlantMetrics }()

	var res RunResult
	mon := link.NewMonitor(s.Plant.Config.Transceiver)
	mon.Metrics = link.NewMonitorMetrics(reg)
	stream := netem.NewStream()
	stream.Metrics = netem.NewStreamMetrics(reg)
	popts := pointing.PointOptions{Metrics: pointing.NewMetrics(reg)}

	// Fault injection + recovery: armed only by a non-empty schedule.
	// With inj == nil the loop below takes the historical code path bit
	// for bit — an all-zero schedule is indistinguishable from none.
	var inj *fault.Schedule
	var sup *Supervisor
	if !opts.Faults.Empty() {
		inj = opts.Faults
		sup = NewSupervisor(opts.Recovery, inj.Seed+1_000_099, reg)
		defer func() {
			// Leave the plant clean for the next run on this system.
			s.Plant.SetAttenuationDB(0)
			s.Plant.TXDev.SetHold(false)
			s.Plant.RXDev.SetHold(false)
			s.Plant.TXDev.SetRangeLimit(0)
			s.Plant.RXDev.SetRangeLimit(0)
		}()
	}

	// Multi-TX handover: standby plants join the run (sharing the primary's
	// metrics instance — one registering site per name), the link monitor
	// gains its LOS-assert holdover, and the supervisor gets the HANDOVER
	// instruments. This defer runs before the two above, so s.Plant is the
	// primary again by the time they clean and restore it.
	var ho *hoState
	if opts.Handover != nil {
		ho = newHoState(s, opts.Handover, opts.Faults)
		mon.HoldOver = losHold
		sup.ArmHandover(reg)
		primary := s.Plant
		prevStandbyMetrics := make([]*link.PlantMetrics, len(opts.Handover.Standbys))
		for i, p := range opts.Handover.Standbys {
			prevStandbyMetrics[i] = p.Metrics
			p.Metrics = primary.Metrics
		}
		defer func() {
			for i, p := range opts.Handover.Standbys {
				p.SetAttenuationDB(0)
				p.Metrics = prevStandbyMetrics[i]
			}
			s.Plant = primary
		}()
	}

	// Hybrid FSO + mmWave policy: a fresh secondary link joins the run
	// with its instruments registered here, and the policy controller
	// records under the cyclops_policy_* names.
	var hy *hyState
	if opts.Hybrid != nil {
		hy = newHyState(reg)
	}

	// Initial state: align at the program's first pose. Under fault
	// injection a failed initial solve is an outage to recover from, not
	// a reason to abort.
	s.Plant.SetHeadset(opts.Program.Pose(0))
	first, err := s.PointNow(0, s.Plant.CurrentVoltages())
	if err != nil {
		if sup == nil {
			return res, fmt.Errorf("core: initial alignment: %w", err)
		}
		sup.SolveFailed(0)
		first.V = s.Plant.CurrentVoltages()
	}
	// The TX model does not depend on the headset pose: compile it once
	// and every P solve of the run reuses the precomputed form.
	l := &runLoop{
		s:           s,
		opts:        opts,
		gateOn:      opts.SolveGate != nil,
		sampleEvery: sampleEvery,
		rm:          rm,
		mon:         mon,
		stream:      stream,
		popts:       popts,
		injOn:       inj != nil,
		inj:         inj.Cursor(),
		sup:         sup,
		ho:          ho,
		hy:          hy,
		gt:          s.Map.TXModel(s.KTX).Compile(),
		lastV:       first.V,
		pendingAt:   -1,
		wasUp:       true,
	}
	l.nextReport = l.reportInterval()

	// One sample lands every sampleEvery from 0 through dur inclusive;
	// sizing the slice up front keeps the record step allocation-free
	// (away from the periodic growth copies append would do).
	l.res.Samples = make([]Sample, 0, dur/sampleEvery+1)

	// Closed interval [0, dur] — deliberately one slot more than the
	// half-open `at < end` convention internal/sim uses: a run's samples
	// must land on both endpoints (the last sample sits exactly AT dur),
	// and every published RunResult was produced by this fencepost.
	// Pinned by TestRunClosedLoopConvention — do not "unify" this to
	// at < dur, it would shift every result by a slot.
	for at := time.Duration(0); at <= dur; at += tick {
		l.step(at)
	}
	res = l.res

	if sup != nil {
		sup.Finish()
		res.Outages = sup.Outages()
		res.Reacquired = sup.Reacquired()
		res.Handovers = sup.Handovers()
		// A run that ends mid-outage still honors the contract that every
		// injected outage is matched by a recovery or an explicit
		// Degraded terminal sample.
		if sup.Down() && len(res.Samples) > 0 {
			res.Samples[len(res.Samples)-1].Degraded = true
		}
	}
	res.Windows = stream.Finish()
	if hy != nil {
		res.Hybrid = hy.finish(l.totalTicks)
	}
	if l.totalTicks > 0 {
		res.UpFraction = float64(l.upTicks) / float64(l.totalTicks)
	}
	if l.latencyN > 0 {
		res.MeanTPLatency = l.latencySum / time.Duration(l.latencyN)
	}
	rm.ticks.Add(float64(l.totalTicks))
	rm.upTicks.Add(float64(l.upTicks))
	res.Metrics = reg.Snapshot().Diff(startSnap)
	if publish {
		obs.Default().Merge(res.Metrics)
	}
	return res, nil
}

// speedWindow is the horizon recent reports are kept over: the paper
// measures speed as the VRH-T displacement across each 50 ms window,
// which averages down the per-report tracking noise.
const speedWindow = 50 * time.Millisecond

// runLoop is one run's per-tick state. Pulling the tick body out of Run
// into step makes it a named unit the hotpath lint can hold to the
// no-allocation contract; the operations and their order are exactly the
// historical inline loop's, so results stay bit-identical.
type runLoop struct {
	s           *System
	opts        RunOptions
	sampleEvery time.Duration

	rm     runMetrics
	mon    *link.Monitor
	stream *netem.Stream
	popts  pointing.PointOptions
	// inj reads the fault schedule once per tick; ticks only move
	// forward, so the cursor never rescans the windows behind it.
	// injOn is false for a nil or empty schedule, which leaves the
	// historical fault-free code path untouched.
	inj   fault.Cursor
	injOn bool
	sup   *Supervisor
	ho    *hoState
	hy    *hyState
	gt    gma.Compiled

	res RunResult

	// Recent reports, kept over the 50 ms speed horizon. The ring reuses
	// one backing array for the whole run; the old slice-and-reslice
	// window (recent = recent[1:]) leaked capacity and reallocated on
	// every window's worth of reports.
	recent reportRing

	// Pending voltage command: computed at a report, applied after the
	// hardware latency.
	pendingV  pointing.Voltages
	pendingAt time.Duration

	lastV      pointing.Voltages
	nextReport time.Duration
	nextSample time.Duration

	// Pose-delta solver gating (RunOptions.SolveGate): gateOn mirrors
	// the arm's non-nil-ness. solvedPose is the pose of the last accepted
	// solve, valid while haveSolvedPose. A report inside the gate's
	// tolerance cone of solvedPose skips the P iteration.
	gateOn         bool
	solvedPose     geom.Pose
	haveSolvedPose bool

	upTicks    int
	totalTicks int
	latencySum time.Duration
	latencyN   int
	wasUp      bool
}

func (l *runLoop) reportInterval() time.Duration {
	if l.opts.ReportEvery > 0 {
		return l.opts.ReportEvery
	}
	return l.s.Tracker.NextInterval()
}

// solveFailed charges a failed solve and tells the supervisor.
func (l *runLoop) solveFailed(at time.Duration) {
	l.res.PointFailures++
	if l.sup != nil {
		l.sup.SolveFailed(at)
	}
}

// command schedules the voltages v to land after the hardware latency
// (DAQ conversion plus mirror settle, as the devices report it; both ends
// move in parallel, so the TX spec stands for both) and tells the
// supervisor the solve succeeded.
func (l *runLoop) command(at time.Duration, v pointing.Voltages) {
	lat := hardwareLatency(l.s)
	l.rm.repoint.Observe(lat.Seconds())
	l.latencySum += lat
	l.latencyN++
	l.pendingV = v
	l.pendingAt = at + lat
	if l.sup != nil {
		l.sup.SolveOK(v)
	}
}

// step advances the simulation by one tick: follow the program, apply
// injected faults and settled mirror commands, consume a tracking report
// when one is due (re-solving P warm-started from the in-flight
// trajectory), then run physics, monitors, and traffic accounting.
//
//cyclops:hotpath runs once per simulated millisecond; Samples is pre-sized so the append never grows
func (l *runLoop) step(at time.Duration) {
	pose := l.opts.Program.Pose(at) //cyclops:alloc-ok Program is the motion interface; every module implementation is itself in the vet scope and the 0-alloc contract is pinned by make alloc-check
	l.s.Plant.SetHeadset(pose)
	if l.ho != nil {
		l.ho.setOtherHeadsets(l.s.Plant, pose)
	}

	// Injected fault state for this tick, applied through the
	// device surfaces (which stay fault-agnostic).
	var fs fault.State
	if l.injOn {
		fs = l.inj.At(at)
		if l.ho != nil {
			// Every TX path carries its own occlusion schedule; the
			// tracker/solver/galvo faults stay with the (shared) RX
			// assembly and whichever TX is active.
			fs.AttenDB = l.ho.applyAtten(at)
		} else {
			l.s.Plant.SetAttenuationDB(fs.AttenDB)
		}
		l.s.Plant.TXDev.SetHold(fs.GalvoStuck)
		l.s.Plant.RXDev.SetHold(fs.GalvoStuck)
		l.s.Plant.TXDev.SetRangeLimit(fs.GalvoSatLimit)
		l.s.Plant.RXDev.SetRangeLimit(fs.GalvoSatLimit)
	}

	// Apply a settled mirror command.
	if l.pendingAt >= 0 && at >= l.pendingAt {
		l.s.Plant.ApplyVoltages(l.pendingV)
		l.lastV = l.pendingV
		l.pendingAt = -1
	}

	// Tracking report due? A blackout window swallows the report
	// entirely (no pose, no solve — but the cadence clock keeps
	// running, like the real pipeline's dropped frames).
	if at >= l.nextReport && !l.opts.DisableTP && !fs.TrackerBlackout {
		var rep vrh.Report
		if fs.TrackerFreeze {
			// Frozen pipeline: stale pose, fresh timestamp, no
			// RNG consumed — the noise stream resumes untouched.
			rep = l.s.Tracker.Holdover(at)
		} else {
			rep = l.s.Tracker.Report(l.s.Plant.Headset(), at)
		}
		l.recent.push(rep)
		for l.recent.len() > 1 && rep.At-l.recent.front().At > speedWindow {
			l.recent.popFront()
		}

		// Warm-start from where the mirrors will actually be when
		// the new command lands: if a command is still in flight,
		// the mirrors are already moving to pendingV, and lastV is
		// one report staler than the hardware's trajectory.
		warmV := l.lastV
		if l.pendingAt >= 0 {
			warmV = l.pendingV
		}
		switch {
		case !rep.Pose.Finite() || fs.SolverDiverge:
			// A poisoned report is refused at the door (pointing
			// would reject it too — this keeps the NaN out of the
			// model transform entirely); an injected divergence
			// fails before the iteration produces anything usable.
			l.rm.reports.Inc()
			l.res.Points++
			l.solveFailed(at)
		case l.sup != nil && !l.sup.AllowSolve(at):
			// Backoff: skip this report's solve; the cadence and
			// the speed window still advance.
			l.rm.reports.Inc()
		case l.ho != nil && at < l.ho.settleUntil:
			// A handover's pre-pointed command is still in flight:
			// re-issuing it would restart the slew past the settle
			// window and cost the switch an extra dark tick.
			l.rm.reports.Inc()
		case l.ho != nil && l.ho.active != 0:
			// On a standby TX the report re-points by oracle rather
			// than through the learned model, which was calibrated
			// against the primary's TX geometry: the switching
			// mechanism is studied apart from learning error. The
			// primary's model and mapping stay untouched for failback.
			l.rm.reports.Inc()
			l.res.Points++
			v, verr := l.s.Plant.OracleAlignedVoltages()
			if verr != nil {
				l.solveFailed(at)
			} else {
				l.command(at, v)
			}
		default:
			// Pose-delta gate: if the reported pose sits inside the
			// tolerance cone of the last accepted solve, the settled
			// (or in-flight) mirror command is still within the beam's
			// capture tolerance — answer the report without a solve.
			// Checked only on the model-based path, after the failure
			// and backoff cases above, so recovery is never starved.
			if l.gateOn && l.haveSolvedPose {
				lin, ang := rep.Pose.Delta(l.solvedPose)
				if lin <= gateMaxTrans && ang <= gateMaxAngle {
					l.rm.reports.Inc()
					l.rm.solvesSkipped.Inc()
					l.res.SolvesSkipped++
					break
				}
			}
			// The RX model rides on the headset: transformed and
			// compiled once per report, then shared by every Beam
			// evaluation inside the solve.
			gr := l.s.Map.RXModel(l.s.KRX, rep.Pose).Compile()
			startV := warmV
			if l.sup != nil {
				startV = l.sup.StartVoltages(warmV)
			}
			pres, perr := pointing.PointCompiled(&l.gt, &gr, startV, l.popts)
			l.rm.reports.Inc()
			l.res.Points++
			if perr != nil {
				l.solveFailed(at)
			} else {
				l.res.TotalPointIters += pres.Iterations
				l.res.TotalGPrimeIters += pres.GPrimeIterations
				l.solvedPose, l.haveSolvedPose = rep.Pose, true
				l.command(at, pres.V)
			}
		}
		l.nextReport = at + l.reportInterval()
	} else if at >= l.nextReport && !l.opts.DisableTP {
		l.nextReport = at + l.reportInterval()
	}

	// Spiral reacquisition: when solves keep failing, the supervisor
	// sweeps the mirrors deterministically around the last-good
	// voltages, one probe per settle interval, independent of the
	// report cadence. In-flight commands are never clobbered.
	if l.sup != nil && l.pendingAt < 0 && l.sup.SpiralDue(at) {
		v := l.sup.SpiralNext(at, l.lastV)
		lat := hardwareLatency(l.s)
		l.pendingV = v
		l.pendingAt = at + lat
	}

	// Physics + monitors. Every consumer but a recorded Sample only asks
	// whether the light clears the SFP sensitivity, so a tick that records
	// no sample reads that verdict and leaves the exact power unformed.
	sensitivity := l.s.Plant.Config.Transceiver.SensitivityDBm
	sample := at >= l.nextSample
	var power float64
	var powerOK bool
	if sample {
		power = l.s.Plant.ReceivedPowerDBm()
		powerOK = power >= sensitivity
	} else {
		powerOK = l.s.Plant.ReadLight(sensitivity)
	}
	up := l.mon.ObserveLight(at, powerOK)
	if l.wasUp && !up {
		l.res.Disconnections++
	}
	l.wasUp = up
	if up {
		l.upTicks++
	}
	l.totalTicks++
	if l.ho != nil {
		l.hoTick(at, powerOK)
	}
	degraded := false
	if l.sup != nil {
		l.sup.Observe(at, tick, up, powerOK)
		degraded = l.sup.State() == SupDegraded
		if degraded {
			l.res.DegradedTicks++
		}
	}
	if l.hy != nil {
		// Hybrid policy owns delivered-traffic accounting: it routes
		// l.stream to whichever medium carries this tick.
		l.hyTick(at, pose, fs, powerOK, up, degraded)
	} else if degraded {
		// Graceful degradation: the stream's clock advances but
		// accounting freezes — a long outage is marked, not billed
		// as measured zero-throughput windows.
		l.stream.FreezeTick(at, tick)
	} else {
		l.stream.Tick(at, tick, up, l.s.Plant.Config.Transceiver.OptimalGoodputGbps)
	}

	if sample {
		var lin, ang float64
		if l.recent.len() >= 2 {
			lin, ang = vrh.Speeds(l.recent.front(), l.recent.back())
		}
		l.res.Samples = append(l.res.Samples, Sample{
			At:       at,
			PowerDBm: power,
			Up:       up,
			PowerOK:  powerOK,
			LinSpeed: lin,
			AngSpeed: ang,
			Degraded: degraded,
		})
		l.nextSample = at + l.sampleEvery
	}
}

// reportRing is the 50 ms speed window's report queue: push at the back,
// pop expired reports from the front, peek both ends. It reuses one
// backing array (growing only if a run's report cadence packs more
// reports into the window than ever before), unlike the previous
// recent = recent[1:] window which abandoned a slot per expiry and forced
// append into a fresh allocation once the original array filled.
type reportRing struct {
	buf  []vrh.Report
	head int // index of the oldest report
	n    int
}

func (r *reportRing) len() int { return r.n }

func (r *reportRing) push(rep vrh.Report) {
	if r.n == len(r.buf) {
		//cyclops:alloc-ok amortized ring growth: only when a run packs more reports into the window than ever before; steady state never grows (pinned by make alloc-check)
		grown := make([]vrh.Report, 2*r.n+8)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = rep
	r.n++
}

func (r *reportRing) popFront() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

func (r *reportRing) front() vrh.Report { return r.buf[r.head] }

func (r *reportRing) back() vrh.Report {
	return r.buf[(r.head+r.n-1)%len(r.buf)]
}

// runMetrics are the loop-level instruments of core.Run; the per-subsystem
// instruments (plant power, monitor transitions, pointing iterations,
// stream totals) are registered by their own packages into the same
// registry.
type runMetrics struct {
	ticks         *obs.Counter
	upTicks       *obs.Counter
	reports       *obs.Counter
	solvesSkipped *obs.Counter
	repoint       *obs.Histogram
}

func newRunMetrics(reg *obs.Registry) runMetrics {
	return runMetrics{
		ticks: reg.Counter("cyclops_run_ticks_total",
			"Simulation ticks executed by core.Run."),
		upTicks: reg.Counter("cyclops_run_up_ticks_total",
			"Ticks with the link up (SFP locked)."),
		reports: reg.Counter("cyclops_run_reports_total",
			"Tracking reports processed (the 12-13 ms VRH-T cadence unless overridden)."),
		solvesSkipped: reg.Counter("cyclops_pointing_solves_skipped_total",
			"Tracking reports answered by the pose-delta gate without a P solve (RunOptions.SolveGate)."),
		repoint: reg.Histogram("cyclops_run_repoint_latency_seconds",
			"Realignment latency per report: DAQ write + mirror settle (paper: 1-2 ms).",
			[]float64{0.0005, 0.001, 0.00125, 0.0015, 0.00175, 0.002, 0.0025, 0.003, 0.005, 0.01}),
	}
}

// hardwareLatency estimates the realignment latency: one DAQ write plus
// the galvo small-step settle — the 1–2 ms of §5.2. (The P computation
// itself is microseconds and ignored, as in the paper.)
func hardwareLatency(s *System) time.Duration {
	// Derived from the device specs rather than mutating device state.
	spec := s.Plant.TXDev.Spec()
	return 1500*time.Microsecond + spec.StepLatency
}

// SpeedThreshold analyzes a run for the Fig 13-style question: up to what
// speed did the link sustain alignment? It buckets samples by the given
// speed accessor and returns the highest bucket (center value) whose
// samples kept optical power above sensitivity (PowerOK), scanning from
// slow to fast. Buckets with fewer than minSamples are skipped. PowerOK
// rather than SFP state keeps multi-second re-lock tails from polluting
// the slow buckets the rig passes through during recovery.
func SpeedThreshold(samples []Sample, speedOf func(Sample) float64, bucket float64, minSamples int) float64 {
	if bucket <= 0 {
		return 0
	}
	type acc struct{ ok, n int }
	buckets := map[int]*acc{}
	maxIdx := 0
	for _, s := range samples {
		idx := int(speedOf(s) / bucket)
		a := buckets[idx]
		if a == nil {
			a = &acc{}
			buckets[idx] = a
		}
		a.n++
		if s.PowerOK {
			a.ok++
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	last := 0.0
	for idx := 0; idx <= maxIdx; idx++ {
		a := buckets[idx]
		if a == nil || a.n < minSamples {
			continue
		}
		frac := float64(a.ok) / float64(a.n)
		if frac < 0.95 {
			break
		}
		last = (float64(idx) + 0.5) * bucket
	}
	return last
}

// MixedSpeedThreshold answers the Fig 14/15 mixed-motion question: what
// simultaneous (linear, angular) speed pair did the link sustain? It
// buckets samples on a 2-D speed grid (5 cm/s × 5 deg/s cells), marks each
// populated cell OK when ≥95 % of its samples kept optical power, and
// returns the corner of the largest all-OK rectangle anchored at the
// origin — "for simultaneous speeds below (lin, ang) the link stayed
// optimal", the paper's own phrasing. Cells with fewer than minSamples are
// ignored (the rig simply never dwelled there).
func MixedSpeedThreshold(samples []Sample, linMax, angMax float64, minSamples int) (lin, ang float64) {
	const (
		linBucket = 0.05              // m/s
		angBucket = 5 * math.Pi / 180 // rad/s
	)
	type cell struct{ ok, n int }
	if linMax <= 0 || angMax <= 0 {
		return 0, 0
	}
	ni := int(linMax/linBucket) + 1
	nj := int(angMax/angBucket) + 1
	grid := make([][]cell, ni)
	for i := range grid {
		grid[i] = make([]cell, nj)
	}
	exercised := false
	for _, s := range samples {
		i := int(s.LinSpeed / linBucket)
		j := int(s.AngSpeed / angBucket)
		if i >= ni || j >= nj {
			continue
		}
		grid[i][j].n++
		if grid[i][j].n >= minSamples {
			exercised = true
		}
		if s.PowerOK {
			grid[i][j].ok++
		}
	}
	// No cell was actually exercised: every populated cell is below
	// minSamples, so "unexercised does not veto" would declare the whole
	// grid OK and the tie-break would report a corner fabricated from no
	// data. There is no evidence for any tolerance — say so.
	if !exercised {
		return 0, 0
	}
	cellOK := func(i, j int) bool {
		c := grid[i][j]
		if c.n < minSamples {
			return true // unexercised: does not veto
		}
		return float64(c.ok)/float64(c.n) >= 0.95
	}
	// Pick the all-OK origin rectangle covering the most samples; ties
	// go to the smaller corner so sparse unexercised fringes cannot
	// stretch the reported bound past motion the rig actually performed.
	var bestCount int
	bestArea := math.Inf(1)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			valid := true
			count := 0
		scan:
			for a := 0; a <= i; a++ {
				for b := 0; b <= j; b++ {
					if !cellOK(a, b) {
						valid = false
						break scan
					}
					count += grid[a][b].n
				}
			}
			if !valid {
				continue
			}
			l := float64(i+1) * linBucket
			g := float64(j+1) * angBucket
			area := l * g
			if count > bestCount || (count == bestCount && area < bestArea) {
				bestCount, bestArea = count, area
				lin, ang = l, g
			}
		}
	}
	return lin, ang
}

// MaxSpeed returns the fastest speed seen among power-OK samples.
func MaxSpeed(samples []Sample, speedOf func(Sample) float64) float64 {
	var m float64
	for _, s := range samples {
		if s.PowerOK {
			m = math.Max(m, speedOf(s))
		}
	}
	return m
}
