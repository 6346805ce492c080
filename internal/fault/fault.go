// Package fault is the deterministic fault-injection subsystem: it plans
// seeded, reproducible fault windows over a run or a trace and reduces
// them to a per-instant State that the consuming layer (core.Run, the
// chaos slot model in internal/sim) applies through the small injection
// surfaces the device packages expose (plant attenuation, galvo
// hold/range-limit, tracker holdover). The device packages themselves
// stay fault-agnostic: nothing in link, galvo, or vrh imports this
// package or knows a schedule exists.
//
// The fault taxonomy mirrors what takes down a ceiling-to-headset FSO
// link in practice, beyond the headset motion §5.4 models:
//
//   - Occlusion: a hand, arm, or body part crosses the beam. Modeled as a
//     path-attenuation window with linear ramp edges (an obstruction
//     sweeps through a finite beam over a few ms, it does not teleport).
//   - TrackerBlackout: the VRH tracking pipeline drops reports entirely
//     (camera washout, runtime hiccup).
//   - TrackerFreeze: the pipeline keeps publishing but the pose is stale
//     (the Holdover failure mode: fresh timestamps, frozen pose).
//   - GalvoStuck: a mirror servo stops responding; commands are accepted
//     but the mirrors do not move.
//   - GalvoSaturation: a failing driver can no longer reach the full
//     output range; commands clamp to a reduced |voltage| limit.
//   - SolverDiverge: transient pointing-solver divergence (degenerate
//     steering basis, poisoned model state) — the solve attempt fails.
//   - HazeFade: slow environmental attenuation (venue haze, fog-machine
//     output, dust) — a seeded ramp-up/plateau/ramp-down envelope seconds
//     long, vs the milliseconds of an occlusion trapezoid. Overlapping
//     haze windows sum, and the haze total adds to the occlusion maximum:
//     fog in the air and a hand through the beam attenuate independently.
//
// # Determinism contract
//
// Plan is a pure function of (Config, seed, duration): the same inputs
// produce a byte-identical Schedule (pinned by String in the tests), and
// Schedule.At is a pure function of time, so any consumer that walks time
// deterministically stays bit-identical at any worker count.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/xrand"
)

// Kind enumerates the fault classes.
type Kind uint8

const (
	// Occlusion attenuates the optical path (hand/body through the beam).
	Occlusion Kind = iota
	// TrackerBlackout drops tracking reports entirely.
	TrackerBlackout
	// TrackerFreeze re-publishes the last pose with fresh timestamps.
	TrackerFreeze
	// GalvoStuck makes the mirror servos ignore commands.
	GalvoStuck
	// GalvoSaturation clamps commandable voltages to a reduced range.
	GalvoSaturation
	// SolverDiverge makes pointing solves fail for the window.
	SolverDiverge
	// HazeFade is a slow environmental attenuation ramp. New kinds append
	// here: each class seeds its rand stream from the Kind value, so
	// renumbering would reshuffle every pinned schedule.
	HazeFade

	numKinds
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case Occlusion:
		return "occlusion"
	case TrackerBlackout:
		return "tracker-blackout"
	case TrackerFreeze:
		return "tracker-freeze"
	case GalvoStuck:
		return "galvo-stuck"
	case GalvoSaturation:
		return "galvo-saturation"
	case SolverDiverge:
		return "solver-diverge"
	case HazeFade:
		return "haze-fade"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Window is one fault episode: the Kind is active on [Start, End).
type Window struct {
	Kind  Kind
	Start time.Duration
	End   time.Duration
	// DepthDB is the plateau attenuation of an Occlusion or HazeFade
	// window, dB.
	DepthDB float64
	// Ramp is the attenuation edge time: attenuation ramps linearly from 0
	// to DepthDB over Ramp at the leading edge (and, when RampDown is
	// zero, back down over Ramp at the trailing edge). Zero means a
	// hard-edged obstruction.
	Ramp time.Duration
	// RampDown, when nonzero, is a separate trailing-edge ramp time —
	// haze dissipates slower than it rolls in. Zero keeps the historical
	// symmetric trapezoid (trailing edge uses Ramp).
	RampDown time.Duration
	// Limit is the reduced |voltage| bound of a GalvoSaturation window.
	Limit float64
}

// attenAt evaluates the attenuation envelope at time t (t in [Start, End)):
// a trapezoid with independent leading (Ramp) and trailing (RampDown,
// defaulting to Ramp) edge times.
func (w Window) attenAt(t time.Duration) float64 {
	up, down := w.ramps()
	if up <= 0 && down <= 0 {
		return w.DepthDB
	}
	frac := 1.0
	if in := t - w.Start; up > 0 && in < up {
		frac = float64(in) / float64(up)
	}
	if out := w.End - t; down > 0 && out < down {
		if f := float64(out) / float64(down); f < frac {
			frac = f
		}
	}
	return w.DepthDB * frac
}

// ramps returns the leading and trailing edge times (RampDown defaults to
// Ramp).
func (w Window) ramps() (up, down time.Duration) {
	up, down = w.Ramp, w.RampDown
	if down <= 0 {
		down = up
	}
	return up, down
}

// attenPhase returns the first instant after t (t in [Start, End)) at
// which the envelope leaves its current phase, and whether t lies in a
// ramp. Within a ramp phase attenAt is monotone in t: the leading ramp
// rises until the plateau or the trailing ramp begins, the trailing ramp
// falls until End. Where the two ramps overlap attenAt is their minimum,
// which is not monotone, so that phase is one nanosecond long. On the
// plateau the phase ends at the first instant of the trailing ramp, at
// End without one.
func (w Window) attenPhase(t time.Duration) (time.Duration, bool) {
	up, down := w.ramps()
	tail := w.End
	if down > 0 {
		tail = w.End - down + 1
	}
	lead := up > 0 && t-w.Start < up
	switch trail := t >= tail; {
	case lead && trail:
		return t + 1, true
	case trail:
		return w.End, true
	case lead:
		return min(w.Start+up, tail), true
	}
	return tail, false
}

// State is the instantaneous fault condition a consumer applies at one
// simulation instant.
type State struct {
	// AttenDB is the total extra optical path attenuation, dB (0 = clear
	// path): the deepest active occlusion plus the summed haze fades.
	AttenDB float64
	// HazeDB is the environmental (HazeFade) component of AttenDB —
	// consumers that model RF blockage separately subtract it to recover
	// the physical-obstruction component (haze does not block mmWave).
	HazeDB float64
	// TrackerBlackout: the report due now is dropped.
	TrackerBlackout bool
	// TrackerFreeze: the report due now repeats the last pose.
	TrackerFreeze bool
	// GalvoStuck: mirror commands are ignored.
	GalvoStuck bool
	// GalvoSatLimit is the reduced |voltage| bound (0 = full range).
	GalvoSatLimit float64
	// SolverDiverge: pointing solves fail.
	SolverDiverge bool
}

// Any reports whether any fault is active.
func (s State) Any() bool {
	return s.AttenDB != 0 || s.TrackerBlackout || s.TrackerFreeze ||
		s.GalvoStuck || s.GalvoSatLimit != 0 || s.SolverDiverge
}

// Schedule is a planned set of fault windows, sorted by (Start, Kind).
type Schedule struct {
	// Seed is the seed the schedule was planned from; consumers derive
	// their own recovery-jitter streams from it so a run's entire hidden
	// variation still flows from one number.
	Seed    int64
	Windows []Window
}

// Empty reports whether the schedule injects nothing. core.Run treats an
// empty schedule exactly like a nil one: no injection, no supervisor, and
// bit-identical output to a fault-free run.
func (s *Schedule) Empty() bool { return s == nil || len(s.Windows) == 0 }

// At reduces the schedule to the instantaneous fault state at time t: a
// fresh Cursor's first lookup. Overlapping occlusions take the deepest
// attenuation, overlapping haze fades sum (independent scattering media
// stack), and the haze total adds to the occlusion maximum; overlapping
// saturations take the tightest limit. The windows must be sorted by
// Start (Plan's order) — the scan stops at the first window that starts
// after t — and the haze total is a float sum taken in window-index
// order, so reordering three or more stacked fades can move its last bit.
func (s *Schedule) At(t time.Duration) State {
	c := s.Cursor()
	return c.At(t)
}

// Cursor is a monotone reader of a Start-sorted schedule: successive At
// calls at non-decreasing times resume the window scan where the last one
// left off instead of rescanning from index 0, so a slot loop pays for
// the windows near the current instant only. It is a value type and never
// allocates.
type Cursor struct {
	windows []Window
	// lo is the first window that may still be active: every window before
	// it ended at or before the last lookup. hi is the first window that
	// had not started by the last lookup.
	lo, hi int
	last   time.Duration
}

// Cursor returns a cursor at the start of the schedule (nil-safe: a nil
// schedule's cursor reads the zero State everywhere).
func (s *Schedule) Cursor() Cursor {
	if s == nil {
		return Cursor{}
	}
	return Cursor{windows: s.Windows}
}

// At returns the fault state at t, bit for bit equal to Schedule.At(t).
// Times should be non-decreasing across calls; a step backwards restarts
// the scan from the first window, which stays correct at At's full cost.
//
//cyclops:hotpath read at the head of every slot-engine run and every core.Run tick; zero-alloc contract pinned by TestCursorZeroAllocs and make alloc-check
func (c *Cursor) At(t time.Duration) State {
	if t < c.last {
		c.lo, c.hi = 0, 0
	}
	c.last = t
	ws := c.windows
	for c.hi < len(ws) && ws[c.hi].Start <= t {
		c.hi++
	}
	for c.lo < c.hi && ws[c.lo].End <= t {
		c.lo++
	}
	return c.reduce(t)
}

// reduce folds the windows of [lo, hi) that are active at t into the
// fault state: At's reduction, which UntilVerdict re-evaluates at later
// instants over the same window set.
func (c *Cursor) reduce(t time.Duration) State {
	var st State
	for i := c.lo; i < c.hi; i++ {
		w := &c.windows[i]
		if t >= w.End {
			continue
		}
		switch w.Kind {
		case Occlusion:
			if a := w.attenAt(t); a > st.AttenDB {
				st.AttenDB = a
			}
		case TrackerBlackout:
			st.TrackerBlackout = true
		case TrackerFreeze:
			st.TrackerFreeze = true
		case GalvoStuck:
			st.GalvoStuck = true
		case GalvoSaturation:
			if st.GalvoSatLimit == 0 || w.Limit < st.GalvoSatLimit {
				st.GalvoSatLimit = w.Limit
			}
		case SolverDiverge:
			st.SolverDiverge = true
		case HazeFade:
			st.HazeDB += w.attenAt(t)
		}
	}
	st.AttenDB += st.HazeDB
	return st
}

// The ramp classes horizon reports besides the index of a lone ramping
// window.
const (
	// noRamp: no attenuation window is in a ramp at t.
	noRamp = -1
	// mixedRamp: two windows ramp at t, or a haze fade ramps while an
	// occlusion is active. The verdicts may then flip more than once.
	mixedRamp = -2
)

// horizon scans the active windows at t, the time of the last At call. It
// returns the first instant after t at which a window starts or ends or
// an attenuation envelope leaves its phase, and how the attenuation moves
// before then: noRamp, mixedRamp, or the index of the one window that
// ramps, in a single monotone phase (or a one-nanosecond phase where its
// two ramps overlap).
func (c *Cursor) horizon() (time.Duration, int) {
	t := c.last
	ws := c.windows
	u := time.Duration(math.MaxInt64)
	if c.hi < len(ws) {
		u = ws[c.hi].Start
	}
	ramp, occluded := noRamp, false
	for i := c.lo; i < c.hi; i++ {
		w := &ws[i]
		if t >= w.End {
			continue
		}
		u = min(u, w.End)
		if w.Kind != Occlusion && w.Kind != HazeFade {
			continue
		}
		occluded = occluded || w.Kind == Occlusion
		b, ramping := w.attenPhase(t)
		u = min(u, b)
		if ramping {
			if ramp != noRamp {
				ramp = mixedRamp
			} else {
				ramp = i
			}
		}
	}
	if ramp >= 0 && ws[ramp].Kind == HazeFade && occluded {
		ramp = mixedRamp
	}
	return u, ramp
}

// UntilVerdict returns an instant after t, the time of the last At call,
// such that At keeps every non-attenuation field and both threshold
// verdicts, AttenDB >= blockDB and AttenDB-HazeDB >= physDB, on
// [t, UntilVerdict()); pass +Inf for a verdict the caller does not read.
// Outside the ramps it is the next instant at which the state itself may
// change: the next window start, the end of an active window, or an
// attenuation ramp edge. Inside a ramp the attenuation moves every
// nanosecond, so it bisects for the first instant whose verdicts differ
// from t's, evaluating At's own reduction.
//
// The bisection is exact because the verdicts flip at most once on the
// phase it searches: one attenuation window ramps there, monotonically,
// and every other term of the reduction holds still. Float max, add and
// multiply are monotone in each operand, so AttenDB = fl(occlusion max +
// haze sum) moves monotonically with the ramping term, and so does
// fl(AttenDB−HazeDB) when that term is an occlusion (HazeDB is fixed) or a
// haze fade with no occlusion active (it is then exactly 0). It falls back
// to t+1 when two windows ramp at once, when a window's leading and
// trailing ramps overlap, and when a haze fade ramps while an occlusion is
// active: fl(fl(occ+H)−H) is not monotone in H.
//
//cyclops:hotpath bounds every slot-engine run that the fault state allows; zero-alloc contract pinned by TestCursorZeroAllocs and make alloc-check
func (c *Cursor) UntilVerdict(blockDB, physDB float64) time.Duration {
	u, ramp := c.horizon()
	switch t := c.last; ramp {
	case noRamp:
		return u
	case mixedRamp:
		return t + 1
	default:
		st := c.reduce(t)
		block, phys := st.AttenDB >= blockDB, st.AttenDB-st.HazeDB >= physDB
		if !c.flips(u-1, blockDB, physDB, block, phys) {
			return u
		}
		// The verdicts hold at lo and have flipped by hi.
		lo, hi := t, u-1
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if c.flips(mid, blockDB, physDB, block, phys) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
}

// flips reports whether either threshold verdict at x differs from block
// and phys.
func (c *Cursor) flips(x time.Duration, blockDB, physDB float64, block, phys bool) bool {
	st := c.reduce(x)
	return (st.AttenDB >= blockDB) != block || (st.AttenDB-st.HazeDB >= physDB) != phys
}

// String renders the schedule one window per line — the canonical form the
// determinism tests pin byte for byte.
func (s *Schedule) String() string {
	if s.Empty() {
		return "fault schedule: empty\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault schedule (seed %d, %d windows):\n", s.Seed, len(s.Windows))
	for _, w := range s.Windows {
		fmt.Fprintf(&b, "  %-16s %v-%v", w.Kind, w.Start, w.End)
		if w.Kind == Occlusion {
			fmt.Fprintf(&b, " depth %.1fdB ramp %v", w.DepthDB, w.Ramp)
		}
		if w.Kind == HazeFade {
			fmt.Fprintf(&b, " depth %.1fdB ramp %v/%v", w.DepthDB, w.Ramp, w.RampDown)
		}
		if w.Kind == GalvoSaturation {
			fmt.Fprintf(&b, " limit %.2fV", w.Limit)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ClassConfig shapes one fault class: a mean event rate and a uniform
// duration range. PerMin <= 0 disables the class.
type ClassConfig struct {
	// PerMin is the mean event rate, episodes per minute (exponential
	// inter-arrivals).
	PerMin float64
	// MinDur and MaxDur bound the uniform episode duration.
	MinDur, MaxDur time.Duration
}

// Config parameterizes Plan: one ClassConfig per fault class plus the
// class-specific shape parameters.
type Config struct {
	Occlusion ClassConfig
	// OcclusionDepthDB bounds the uniform per-episode plateau attenuation.
	OcclusionDepthDB [2]float64
	// OcclusionRamp is the obstruction edge time (see Window.Ramp).
	OcclusionRamp time.Duration

	Blackout   ClassConfig
	Freeze     ClassConfig
	Stuck      ClassConfig
	Saturation ClassConfig
	// SaturationLimit is the reduced |voltage| bound during saturation.
	SaturationLimit float64
	Diverge         ClassConfig

	Haze ClassConfig
	// HazeDepthDB bounds the uniform per-episode plateau attenuation of a
	// haze fade.
	HazeDepthDB [2]float64
	// HazeRampUp and HazeRampDown bound the uniform per-episode leading
	// and trailing edge times (haze clears slower than it rolls in).
	HazeRampUp   [2]time.Duration
	HazeRampDown [2]time.Duration
}

// DefaultConfig is a moderately hostile mix of every class — the
// cyclops-sim -chaos demo schedule. Rates are deliberately far above any
// plausible deployment so a minute of run exercises every recovery path;
// occlusions are rarer than the rest because each one costs its window
// plus the SFP's 3 s re-lock.
func DefaultConfig() Config {
	return Config{
		Occlusion:        ClassConfig{PerMin: 3, MinDur: 100 * time.Millisecond, MaxDur: 400 * time.Millisecond},
		OcclusionDepthDB: [2]float64{25, 45},
		OcclusionRamp:    10 * time.Millisecond,
		Blackout:         ClassConfig{PerMin: 4, MinDur: 50 * time.Millisecond, MaxDur: 150 * time.Millisecond},
		Freeze:           ClassConfig{PerMin: 2, MinDur: 50 * time.Millisecond, MaxDur: 150 * time.Millisecond},
		Stuck:            ClassConfig{PerMin: 1, MinDur: 100 * time.Millisecond, MaxDur: 300 * time.Millisecond},
		Saturation:       ClassConfig{PerMin: 1, MinDur: 200 * time.Millisecond, MaxDur: 500 * time.Millisecond},
		SaturationLimit:  0.5,
		Diverge:          ClassConfig{PerMin: 4, MinDur: 30 * time.Millisecond, MaxDur: 120 * time.Millisecond},
	}
}

// DefaultHazeConfig is the haze-only environmental-fade schedule the
// cyclops-sim -haze flag and the fig16-hybrid haze-ramp arm use: episodes
// seconds long with multi-second edges, deep enough at the plateau to
// push the optical budget below sensitivity. It is deliberately a
// separate config from DefaultConfig — the chaos demo schedule stays
// byte-identical — and composes with it by copying the Haze* fields.
func DefaultHazeConfig() Config {
	return Config{
		Haze:         ClassConfig{PerMin: 2, MinDur: 6 * time.Second, MaxDur: 12 * time.Second},
		HazeDepthDB:  [2]float64{18, 30},
		HazeRampUp:   [2]time.Duration{1 * time.Second, 3 * time.Second},
		HazeRampDown: [2]time.Duration{2 * time.Second, 5 * time.Second},
	}
}

// Plan generates the seeded fault schedule for a run of the given
// duration. Each class draws from its own rand stream (derived from seed
// and the class kind), so enabling or re-tuning one class never perturbs
// another's episodes — the property that makes a rate×duration sweep a
// controlled experiment rather than a reshuffle. The streams are
// xrand replicas of rand.New(rand.NewSource(…)).
func Plan(cfg Config, seed int64, dur time.Duration) Schedule {
	s := Schedule{Seed: seed}
	// One generator, re-seeded per class, stays on Plan's stack; an
	// xrand.New per class would allocate 9.7 KB each.
	var rng xrand.Rand
	for _, class := range [...]struct {
		kind Kind
		cc   ClassConfig
	}{
		{Occlusion, cfg.Occlusion},
		{TrackerBlackout, cfg.Blackout},
		{TrackerFreeze, cfg.Freeze},
		{GalvoStuck, cfg.Stuck},
		{GalvoSaturation, cfg.Saturation},
		{SolverDiverge, cfg.Diverge},
		{HazeFade, cfg.Haze},
	} {
		cc := class.cc
		if cc.PerMin <= 0 || cc.MaxDur <= 0 || dur <= 0 {
			continue
		}
		rng.Seed(seed*1_000_003 + int64(class.kind)*7919 + 1)
		meanGap := time.Duration(60 / cc.PerMin * float64(time.Second))
		at := time.Duration(rng.ExpFloat64() * float64(meanGap))
		for at < dur {
			d := cc.MinDur
			if cc.MaxDur > cc.MinDur {
				d += time.Duration(rng.Float64() * float64(cc.MaxDur-cc.MinDur))
			}
			end := at + d
			if end > dur {
				end = dur
			}
			w := Window{Kind: class.kind, Start: at, End: end}
			cfg.shape(&rng, &w)
			s.Windows = append(s.Windows, w)
			at = end + time.Duration(rng.ExpFloat64()*float64(meanGap))
		}
	}

	sort.SliceStable(s.Windows, func(i, j int) bool {
		if s.Windows[i].Start != s.Windows[j].Start {
			return s.Windows[i].Start < s.Windows[j].Start
		}
		return s.Windows[i].Kind < s.Windows[j].Kind
	})
	return s
}

// shape draws the class-specific fields of a planned window from its
// class's stream.
func (cfg *Config) shape(rng *xrand.Rand, w *Window) {
	switch w.Kind {
	case Occlusion:
		lo, hi := cfg.OcclusionDepthDB[0], cfg.OcclusionDepthDB[1]
		w.DepthDB = lo + rng.Float64()*(hi-lo)
		w.Ramp = cfg.OcclusionRamp
	case GalvoSaturation:
		w.Limit = cfg.SaturationLimit
	case HazeFade:
		lo, hi := cfg.HazeDepthDB[0], cfg.HazeDepthDB[1]
		w.DepthDB = lo + rng.Float64()*(hi-lo)
		w.Ramp = durBetween(rng, cfg.HazeRampUp)
		w.RampDown = durBetween(rng, cfg.HazeRampDown)
	case TrackerBlackout, TrackerFreeze, GalvoStuck, SolverDiverge:
		// No class-specific fields and no draws.
	}
}

// durBetween draws a uniform duration from the inclusive-exclusive range
// r; a degenerate range pins the value to r[0].
func durBetween(rng *xrand.Rand, r [2]time.Duration) time.Duration {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + time.Duration(rng.Float64()*float64(r[1]-r[0]))
}

// OutageMetrics is the shared outage instrument pair. Both consumers of
// the schedule — core.Run's supervisor and the sim chaos corpus — record
// under these names, and the obs registry panics on re-registration with
// different bounds, so the names and buckets are defined exactly once,
// here.
type OutageMetrics struct {
	// Outages counts link outages attributed to injected faults (and, in
	// core.Run, any outage the supervisor had to recover from).
	Outages *obs.Counter
	// Reacquire is the outage-to-link-up recovery time distribution. The
	// buckets straddle the SFP re-lock delay (3 s in both transceiver
	// configs): fast spiral/backoff recoveries land low, full re-lock
	// tails land around 3-5 s.
	Reacquire *obs.Histogram
}

// ReacquireBuckets are the cyclops_reacquire_seconds histogram bounds.
var ReacquireBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 3, 4, 5, 8, 15}

// NewOutageMetrics registers the outage instruments in reg (nil reg → nil
// metrics, recording disabled).
func NewOutageMetrics(reg *obs.Registry) *OutageMetrics {
	if reg == nil {
		return nil
	}
	return &OutageMetrics{
		Outages: reg.Counter("cyclops_outage_total",
			"Link outages observed under fault injection."),
		Reacquire: reg.Histogram("cyclops_reacquire_seconds",
			"Outage-to-recovery time: link down until the SFP re-locks.",
			ReacquireBuckets),
	}
}

// HandoverMetrics is the shared multi-TX handover instrument set. Like
// OutageMetrics, both consumers — core.Run's supervisor and the sim chaos
// slot model — record under these names, so they are defined exactly once,
// here.
type HandoverMetrics struct {
	// Handovers counts make-before-break switches to a standby TX.
	Handovers *obs.Counter
	// Dark is the dark-time distribution of each handover: last light on
	// the old path to first light on the new one. The buckets sit far
	// below ReacquireBuckets — a working handover costs one realignment
	// latency (~1.8 ms), not a 3 s SFP re-lock.
	Dark *obs.Histogram
	// Staleness is the age of the standby pre-point at the moment of the
	// most recent switch (core.Run only; the slot model has no pre-point
	// clock and leaves it at zero).
	Staleness *obs.Gauge
}

// HandoverDarkBuckets are the cyclops_handover_seconds histogram bounds.
var HandoverDarkBuckets = []float64{0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.05, 0.1}

// NewHandoverMetrics registers the handover instruments in reg (nil reg →
// nil metrics, recording disabled).
func NewHandoverMetrics(reg *obs.Registry) *HandoverMetrics {
	if reg == nil {
		return nil
	}
	return &HandoverMetrics{
		Handovers: reg.Counter("cyclops_handover_total",
			"Make-before-break switches to a standby transmitter."),
		Dark: reg.Histogram("cyclops_handover_seconds",
			"Dark time per handover: last light on the old TX path to first light on the standby.",
			HandoverDarkBuckets),
		Staleness: reg.Gauge("cyclops_handover_standby_staleness_seconds",
			"Age of the standby pre-point voltages at the most recent handover."),
	}
}
