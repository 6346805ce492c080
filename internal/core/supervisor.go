package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/pointing"
)

// SupState is the supervisor's recovery state.
type SupState uint8

const (
	// SupTracking: the link is up and the normal report→solve→command
	// loop is in charge.
	SupTracking SupState = iota
	// SupReacquiring: the link is down; the supervisor is driving
	// recovery (backoff'd solves, jittered restarts, spiral scan).
	SupReacquiring
	// SupDegraded: the outage has outlasted DegradeAfter; the run keeps
	// going with samples marked Degraded and traffic accounting frozen.
	SupDegraded
	// SupHandover: the active TX path went dark and a pre-pointed standby
	// is being switched in (make-before-break). Resolves to TRACKING the
	// moment the standby lights the receiver, or falls through to the
	// ordinary outage machinery (REACQUIRING) if the monitor's holdover
	// expires first. Appended after SupDegraded so the existing states
	// keep their numeric values.
	SupHandover

	numSupStates
)

// String names the supervisor state.
func (s SupState) String() string {
	switch s {
	case SupTracking:
		return "tracking"
	case SupReacquiring:
		return "reacquiring"
	case SupDegraded:
		return "degraded"
	case SupHandover:
		return "handover"
	}
	return fmt.Sprintf("core.SupState(%d)", uint8(s))
}

// RecoveryOptions tunes the supervisor. The zero value of every field
// means "use the documented default".
type RecoveryOptions struct {
	// BackoffBase is the first retry delay after a failed solve
	// (default 10 ms — skip at most one report).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff growth (default 160 ms).
	BackoffMax time.Duration
	// JitterFrac spreads each backoff uniformly by ±JitterFrac around
	// its nominal value, drawn from the supervisor's own seeded stream
	// (default 0.25).
	JitterFrac float64
	// RestartJitterV is the 1-σ voltage perturbation applied per
	// consecutive failure when restarting a solve from the last-good
	// voltages (default 0.02 V) — the jittered-restart escape from a
	// stuck fixed point.
	RestartJitterV float64
	// SpiralAfter is the consecutive-failure count that abandons warm
	// restarts for the spiral scan (default 3).
	SpiralAfter int
	// SpiralStepV scales the spiral radius: attempt n sits at
	// SpiralStepV·√(n+1) volts from the last-good voltages (default
	// 0.04 V).
	SpiralStepV float64
	// SpiralEvery paces spiral commands (default 10 ms, roughly one
	// mirror settle per probe).
	SpiralEvery time.Duration
	// DegradeAfter is the continuous downtime that flips REACQUIRING to
	// DEGRADED (default 500 ms — ten 50 ms throughput windows lost).
	DegradeAfter time.Duration
}

func (o *RecoveryOptions) defaults() {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 160 * time.Millisecond
	}
	if o.JitterFrac <= 0 {
		o.JitterFrac = 0.25
	}
	if o.RestartJitterV <= 0 {
		o.RestartJitterV = 0.02
	}
	if o.SpiralAfter <= 0 {
		o.SpiralAfter = 3
	}
	if o.SpiralStepV <= 0 {
		o.SpiralStepV = 0.04
	}
	if o.SpiralEvery <= 0 {
		o.SpiralEvery = 10 * time.Millisecond
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 500 * time.Millisecond
	}
}

// goldenAngle spreads successive spiral probes maximally apart.
const goldenAngle = 2.399963229728653

// Supervisor is the recovery state machine core.Run wires around the link
// monitor when fault injection is enabled: TRACKING until the link drops,
// REACQUIRING while it drives solve retries (exponential backoff with
// seeded jitter) and, when solves keep failing, a deterministic spiral
// scan around the last-good voltages; DEGRADED once the outage outlasts
// DegradeAfter — the run never aborts, it marks samples and freezes
// traffic accounting until the link returns.
//
// All randomness (backoff jitter, restart perturbations) comes from the
// supervisor's own rand stream seeded at construction, so recovery
// activity never perturbs the tracker/galvo noise streams and the whole
// faulted run stays bit-reproducible.
type Supervisor struct {
	opts RecoveryOptions
	rng  *rand.Rand

	state      SupState
	timeIn     [numSupStates]time.Duration
	down       bool
	downSince  time.Duration
	outages    int
	reacquired int

	consecFails  int
	retryAt      time.Duration
	lastGood     pointing.Voltages
	haveGood     bool
	spiralN      int
	spiralNextAt time.Duration

	hoSince   time.Duration
	handovers int

	om *fault.OutageMetrics
	sm *supervisorMetrics
	hm *fault.HandoverMetrics
	// hoGauge is the time-in-HANDOVER gauge; like hm it registers only
	// when ArmHandover runs, so non-handover runs expose byte-identical
	// metric sets.
	hoGauge *obs.Gauge
}

// NewSupervisor builds a supervisor recording into reg (nil reg disables
// recording). The seed drives the backoff-jitter and restart-perturbation
// stream only.
func NewSupervisor(opts RecoveryOptions, seed int64, reg *obs.Registry) *Supervisor {
	opts.defaults()
	return &Supervisor{
		opts:  opts,
		rng:   rand.New(rand.NewSource(seed)),
		state: SupTracking,
		om:    fault.NewOutageMetrics(reg),
		sm:    newSupervisorMetrics(reg),
	}
}

// supervisorMetrics are the supervisor's own instruments; the shared
// outage pair (cyclops_outage_total / cyclops_reacquire_seconds) lives in
// fault.NewOutageMetrics so the sim chaos path registers identically.
type supervisorMetrics struct {
	tracking    *obs.Gauge
	reacquiring *obs.Gauge
	degraded    *obs.Gauge
	spiral      *obs.Counter
}

func newSupervisorMetrics(reg *obs.Registry) *supervisorMetrics {
	if reg == nil {
		return nil
	}
	return &supervisorMetrics{
		tracking: reg.Gauge("cyclops_supervisor_tracking_seconds",
			"Run time spent in the TRACKING supervisor state."),
		reacquiring: reg.Gauge("cyclops_supervisor_reacquiring_seconds",
			"Run time spent in the REACQUIRING supervisor state."),
		degraded: reg.Gauge("cyclops_supervisor_degraded_seconds",
			"Run time spent in the DEGRADED supervisor state."),
		spiral: reg.Counter("cyclops_supervisor_spiral_commands_total",
			"Spiral-scan mirror commands issued while reacquiring."),
	}
}

// ArmHandover equips the supervisor with the make-before-break instruments.
// Deliberately separate from NewSupervisor: a faulted run without standby
// TXs must not register handover metrics, or its exposition would drift
// from the pre-handover builds byte for byte.
func (s *Supervisor) ArmHandover(reg *obs.Registry) {
	s.hm = fault.NewHandoverMetrics(reg)
	if reg != nil {
		s.hoGauge = reg.Gauge("cyclops_supervisor_handover_seconds",
			"Run time spent in the HANDOVER supervisor state.")
	}
}

// BeginHandover records the make-before-break switch: the active path went
// dark past the debounce and a standby is slewing in. staleness is the age
// of the standby's pre-point voltages at the moment of the switch.
func (s *Supervisor) BeginHandover(at, staleness time.Duration) {
	s.handovers++
	if s.hm != nil {
		s.hm.Handovers.Inc()
		s.hm.Staleness.Set(staleness.Seconds())
	}
	// A switch during an established outage (the SFP already unlocked) is
	// still worth doing — light returns sooner, so the re-lock clock
	// starts sooner — but the outage machinery keeps the state: the run
	// is REACQUIRING/DEGRADED until the monitor comes back, and only a
	// make-before-break switch from a locked link enters HANDOVER.
	if s.down {
		return
	}
	s.state = SupHandover
	s.hoSince = at
}

// Handovers returns how many make-before-break switches were begun.
func (s *Supervisor) Handovers() int { return s.handovers }

// State returns the current supervisor state.
func (s *Supervisor) State() SupState { return s.state }

// Down reports whether the supervisor currently sees the link down.
func (s *Supervisor) Down() bool { return s.down }

// Outages returns how many link-down episodes the supervisor entered.
func (s *Supervisor) Outages() int { return s.outages }

// Reacquired returns how many of those episodes recovered to link-up.
func (s *Supervisor) Reacquired() int { return s.reacquired }

// Observe feeds one tick's link verdict: up is the monitor's SFP state
// (re-lock hysteresis included), powerOK the instantaneous optical
// signal. It advances the state timers and runs every state transition:
// up→down opens an outage (→ REACQUIRING), down→up closes it with a
// reacquire-time observation (→ TRACKING), and a down stretch longer than
// DegradeAfter sinks to DEGRADED.
func (s *Supervisor) Observe(at, tick time.Duration, up, powerOK bool) {
	s.timeIn[s.state] += tick
	// HANDOVER resolves on the optical signal, not the SFP state: the
	// whole point of make-before-break is that the monitor's holdover
	// carries the lock across the switch. First light from the standby
	// completes the handover; if instead the holdover expires (up goes
	// false) while still dark, the switch failed and the ordinary outage
	// machinery below takes over.
	if s.state == SupHandover && powerOK {
		if s.hm != nil {
			s.hm.Dark.Observe((at - s.hoSince).Seconds())
		}
		s.state = SupTracking
	}
	switch {
	case s.down && up:
		if s.om != nil {
			s.om.Reacquire.Observe((at - s.downSince).Seconds())
		}
		s.reacquired++
		s.down = false
		s.state = SupTracking
		s.resetRecovery()
	case s.down:
		if s.state == SupReacquiring && at-s.downSince >= s.opts.DegradeAfter {
			s.state = SupDegraded
		}
	case !up:
		s.down = true
		s.downSince = at
		s.outages++
		if s.om != nil {
			s.om.Outages.Inc()
		}
		s.state = SupReacquiring
	}
	// Light found (even before the SFP re-locks): the spiral's job is
	// done — stop probing and let the next report solve from here.
	if powerOK && s.spiralN > 0 {
		s.consecFails = 0
		s.spiralN = 0
		s.retryAt = 0
	}
}

func (s *Supervisor) resetRecovery() {
	s.consecFails = 0
	s.retryAt = 0
	s.spiralN = 0
	s.spiralNextAt = 0
}

// AllowSolve reports whether a report arriving at time at may attempt a
// pointing solve, honoring the current backoff.
func (s *Supervisor) AllowSolve(at time.Duration) bool { return at >= s.retryAt }

// StartVoltages picks the solve's starting point: the caller's warm start
// normally; after failures, the last-good voltages perturbed by a seeded
// jitter that grows with the consecutive-failure count — re-running the
// exact diverging solve from the exact same point would fail the exact
// same way.
func (s *Supervisor) StartVoltages(warm pointing.Voltages) pointing.Voltages {
	if s.consecFails == 0 {
		return warm
	}
	base := warm
	if s.haveGood {
		base = s.lastGood
	}
	j := s.opts.RestartJitterV * float64(s.consecFails)
	base.TX1 += s.rng.NormFloat64() * j
	base.TX2 += s.rng.NormFloat64() * j
	base.RX1 += s.rng.NormFloat64() * j
	base.RX2 += s.rng.NormFloat64() * j
	return base
}

// SolveOK records a converged solve and its voltages as the new last-good
// point.
func (s *Supervisor) SolveOK(v pointing.Voltages) {
	s.consecFails = 0
	s.retryAt = 0
	s.lastGood = v
	s.haveGood = true
}

// SolveFailed records a failed solve and schedules the next attempt with
// exponential backoff and seeded jitter.
func (s *Supervisor) SolveFailed(at time.Duration) {
	s.consecFails++
	backoff := s.opts.BackoffBase
	for i := 1; i < s.consecFails && backoff < s.opts.BackoffMax; i++ {
		backoff *= 2
	}
	if backoff > s.opts.BackoffMax {
		backoff = s.opts.BackoffMax
	}
	jitter := 1 + s.opts.JitterFrac*(2*s.rng.Float64()-1)
	s.retryAt = at + time.Duration(float64(backoff)*jitter)
	if s.spiralN == 0 {
		s.spiralNextAt = at // first spiral probe may fire immediately
	}
}

// SpiralDue reports whether a spiral-scan command should be issued now:
// solves have failed SpiralAfter times in a row and the per-probe pacing
// interval has elapsed.
func (s *Supervisor) SpiralDue(at time.Duration) bool {
	return s.consecFails >= s.opts.SpiralAfter && at >= s.spiralNextAt
}

// SpiralNext returns the next spiral-scan voltages: probe n sits at
// radius SpiralStepV·√(n+1) and angle n·goldenAngle around the last-good
// voltages (or the caller's fallback when no solve ever succeeded). The
// TX and RX pairs take mirrored angular offsets so the two ends do not
// chase each other along the same direction.
func (s *Supervisor) SpiralNext(at time.Duration, fallback pointing.Voltages) pointing.Voltages {
	c := fallback
	if s.haveGood {
		c = s.lastGood
	}
	n := s.spiralN
	s.spiralN++
	s.spiralNextAt = at + s.opts.SpiralEvery
	if s.sm != nil {
		s.sm.spiral.Inc()
	}
	r := s.opts.SpiralStepV * math.Sqrt(float64(n+1))
	th := float64(n) * goldenAngle
	dv1, dv2 := r*math.Cos(th), r*math.Sin(th)
	return pointing.Voltages{
		TX1: c.TX1 + dv1, TX2: c.TX2 + dv2,
		RX1: c.RX1 + dv1, RX2: c.RX2 - dv2,
	}
}

// Finish flushes the time-in-state gauges.
func (s *Supervisor) Finish() {
	if s.sm == nil {
		return
	}
	s.sm.tracking.Set(s.timeIn[SupTracking].Seconds())
	s.sm.reacquiring.Set(s.timeIn[SupReacquiring].Seconds())
	s.sm.degraded.Set(s.timeIn[SupDegraded].Seconds())
	if s.hoGauge != nil {
		s.hoGauge.Set(s.timeIn[SupHandover].Seconds())
	}
}
