// Package policy implements the deterministic hybrid link policy: the
// SLO-driven state machine that decides, tick by tick, whether delivered
// traffic rides the FSO primary or an RF secondary (the 802.11ad mmWave
// link of internal/baseline). The paper's framing (§1, §2.1) is that FSO
// carries the tens of gigabits VR needs while mmWave is the fallback-class
// medium everyone ships; this package is the glue that makes the fallback
// live instead of a standalone comparison.
//
// The controller is a pure function of the health samples it is fed — no
// clocks, no randomness — so a policy run is exactly as bit-reproducible
// as the run that drives it. Consumers (core.Run's RunOptions.Hybrid, the
// sim hybrid slot model) translate their own notion of "primary healthy"
// into the boolean Observe consumes; the usual definition is "SFP locked
// AND received power clears sensitivity plus margin", which makes the SFP
// re-lock tail count as unhealthy and therefore delays re-admission until
// the optical link is actually carrying again.
//
// # State machine
//
//	PRIMARY ──unhealthy──▶ BREACH-PENDING ──sustained BreachAfter──▶ SECONDARY
//	   ▲                        │healthy                               │healthy
//	   │                        ▼                                      ▼
//	   └──sustained ClearAfter── READMIT-PENDING ◀────────────── (clear clock
//	                                  │unhealthy──▶ SECONDARY      starts)
//
// Both hysteresis windows are boundary-inclusive: a breach clock started
// at t fails over on the unhealthy sample at t+BreachAfter, a clear clock
// re-admits on the healthy sample at t+ClearAfter — the same
// closed-boundary convention link.Monitor uses for HoldOver and
// RelockDelay. Because leaving SECONDARY requires ClearAfter of
// uninterrupted health, a completed failover→readmit dwell is never
// shorter than ClearAfter: the policy cannot flap during a recovery or a
// handover slew by construction.
package policy

import (
	"fmt"
	"math"
	"time"

	"cyclops/internal/obs"
)

// State is the policy state. Traffic rides the primary in Primary and
// BreachPending, the secondary in Secondary and ReadmitPending.
type State uint8

const (
	// Primary: the FSO link is healthy and carrying.
	Primary State = iota
	// BreachPending: the primary is breaching its SLO; the breach clock
	// runs but traffic still rides the primary (hysteresis against
	// realignment transients and handover slews).
	BreachPending
	// Secondary: traffic failed over to the RF secondary.
	Secondary
	// ReadmitPending: the primary looks healthy again; the clear clock
	// runs but traffic stays on the secondary until it matures.
	ReadmitPending
)

// String names the policy state.
func (s State) String() string {
	switch s {
	case Primary:
		return "PRIMARY"
	case BreachPending:
		return "BREACH-PENDING"
	case Secondary:
		return "SECONDARY"
	case ReadmitPending:
		return "READMIT-PENDING"
	}
	return fmt.Sprintf("policy.State(%d)", uint8(s))
}

// OnSecondary reports whether delivered traffic rides the secondary
// medium in this state.
func (s State) OnSecondary() bool { return s == Secondary || s == ReadmitPending }

// The SLO hysteresis windows every controller runs with.
const (
	// BreachAfter is how long the primary must stay continuously
	// unhealthy before the controller fails over: far above a realignment
	// transient or a make-before-break handover slew, far below the 3 s
	// SFP re-lock an occlusion costs.
	BreachAfter = 50 * time.Millisecond
	// ClearAfter is how long the primary must stay continuously healthy
	// (re-locked and inside margin) before the controller re-admits it,
	// matching core.Run's handover failback. It is also the minimum
	// completed SECONDARY dwell — the no-flap floor.
	ClearAfter = 500 * time.Millisecond
)

// Metrics instruments the policy layer. Like fault.OutageMetrics, every
// consumer of the controller (core.Run's hybrid path, the sim hybrid slot
// model) records under these names, so they are defined exactly once,
// here.
type Metrics struct {
	// Failovers counts PRIMARY→SECONDARY transitions.
	Failovers *obs.Counter
	// Readmits counts SECONDARY→PRIMARY transitions (clear window
	// matured).
	Readmits *obs.Counter
	// SecondarySeconds totals time delivered traffic rode the secondary.
	SecondarySeconds *obs.Counter
	// Dwell is the completed failover→readmit dwell distribution. Every
	// observation sits at or above ClearAfter — a bucket below it
	// filling up is the flap signature the policy exists to prevent.
	Dwell *obs.Histogram
}

// SecondaryDwellBuckets are the cyclops_policy_secondary_dwell_seconds
// histogram bounds. They straddle the 500 ms ClearAfter window and the
// multi-second haze fades that drive realistic failovers.
var SecondaryDwellBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 60}

// NewMetrics registers the policy instruments in reg (nil reg → nil
// metrics, recording disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Failovers: reg.Counter("cyclops_policy_failover_total",
			"Hybrid link policy failovers: FSO primary to mmWave secondary on sustained SLO breach."),
		Readmits: reg.Counter("cyclops_policy_readmit_total",
			"Hybrid link policy re-admissions: back to the FSO primary after re-lock plus the clear window."),
		SecondarySeconds: reg.Counter("cyclops_policy_secondary_seconds",
			"Time delivered traffic rode the mmWave secondary."),
		Dwell: reg.Histogram("cyclops_policy_secondary_dwell_seconds",
			"Completed failover-to-readmit dwell on the secondary (never below the clear window).",
			SecondaryDwellBuckets),
	}
}

// Controller is the per-run policy state machine. Feed it one health
// sample per tick through Observe, or a run of ticks with one verdict
// through ObserveRun; it is not safe for concurrent use.
type Controller struct {
	m *Metrics

	state       State
	breachSince time.Duration
	clearSince  time.Duration
	failedAt    time.Duration

	failovers int
	readmits  int
	minDwell  time.Duration
	hasDwell  bool
}

// New builds a controller in the PRIMARY state. A nil Metrics disables
// recording.
func New(m *Metrics) *Controller {
	return &Controller{m: m}
}

// Observe feeds one tick: at is the sample time (non-decreasing), tick
// the simulation step it covers, and primaryHealthy the caller's SLO
// verdict on the FSO link for this tick. It returns the state after the
// sample — the medium that carries this tick's traffic.
func (c *Controller) Observe(at, tick time.Duration, primaryHealthy bool) State {
	switch c.state {
	case Primary:
		if !primaryHealthy {
			c.state = BreachPending
			c.breachSince = at
			c.maybeFailover(at)
		}
	case BreachPending:
		if primaryHealthy {
			c.state = Primary
		} else {
			c.maybeFailover(at)
		}
	case Secondary:
		if primaryHealthy {
			c.state = ReadmitPending
			c.clearSince = at
			c.maybeReadmit(at)
		}
	case ReadmitPending:
		if !primaryHealthy {
			c.state = Secondary
		} else {
			c.maybeReadmit(at)
		}
	}
	if c.state.OnSecondary() && c.m != nil {
		c.m.SecondarySeconds.Add(tick.Seconds())
	}
	return c.state
}

// ObserveRun feeds n samples of one verdict, taken at from, from+tick, …,
// from+(n−1)·tick: exactly n Observe calls, returning the state after the
// last. Samples that agree with the state and come before its Deadline
// only accrue secondary time, so those stretches are applied in bulk.
func (c *Controller) ObserveRun(from, tick time.Duration, n int, primaryHealthy bool) State {
	for n > 0 {
		k := c.holding(from, tick, n, primaryHealthy)
		if k == 0 {
			c.Observe(from, tick, primaryHealthy)
			k = 1
		} else if c.state.OnSecondary() && c.m != nil {
			c.m.SecondarySeconds.AddN(tick.Seconds(), k)
		}
		from += time.Duration(k) * tick
		n -= k
	}
	return c.state
}

// holding counts the leading samples of a run that cannot move the state:
// those that agree with it and come before its Deadline.
func (c *Controller) holding(from, tick time.Duration, n int, primaryHealthy bool) int {
	if primaryHealthy != (c.state == Primary || c.state == ReadmitPending) {
		return 0
	}
	d := c.Deadline()
	if from+time.Duration(n-1)*tick < d {
		return n
	}
	if from >= d {
		return 0
	}
	return int((d-from-1)/tick) + 1
}

// Deadline is the earliest sample time at which a sample agreeing with the
// state — healthy in Primary and ReadmitPending, unhealthy in
// BreachPending and Secondary — can move it: the maturity of the running
// breach or clear window. The settled states have none (math.MaxInt64);
// only a disagreeing sample moves them.
func (c *Controller) Deadline() time.Duration {
	switch c.state {
	case BreachPending:
		return c.breachSince + BreachAfter
	case ReadmitPending:
		return c.clearSince + ClearAfter
	case Primary, Secondary:
	}
	return math.MaxInt64
}

func (c *Controller) maybeFailover(at time.Duration) {
	if at-c.breachSince < BreachAfter {
		return
	}
	c.state = Secondary
	c.failedAt = at
	c.failovers++
	if c.m != nil {
		c.m.Failovers.Inc()
	}
}

func (c *Controller) maybeReadmit(at time.Duration) {
	if at-c.clearSince < ClearAfter {
		return
	}
	c.state = Primary
	c.readmits++
	dwell := at - c.failedAt
	if !c.hasDwell || dwell < c.minDwell {
		c.minDwell = dwell
		c.hasDwell = true
	}
	if c.m != nil {
		c.m.Readmits.Inc()
		c.m.Dwell.Observe(dwell.Seconds())
	}
}

// Failovers counts PRIMARY→SECONDARY transitions so far.
func (c *Controller) Failovers() int { return c.failovers }

// Readmits counts SECONDARY→PRIMARY transitions so far.
func (c *Controller) Readmits() int { return c.readmits }

// MinSecondaryDwell is the shortest completed failover→readmit dwell, or
// zero when no dwell has completed. By construction it is never below
// ClearAfter — the no-flap guarantee the acceptance tests pin.
func (c *Controller) MinSecondaryDwell() time.Duration {
	if !c.hasDwell {
		return 0
	}
	return c.minDwell
}
