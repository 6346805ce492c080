package core

import (
	"time"

	"cyclops/internal/baseline"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/policy"
)

// HybridOptions arm the hybrid FSO + mmWave link policy
// (RunOptions.Hybrid): the baseline 802.11ad link (a fresh
// baseline.NewMmWave() per run, mounted at the Cyclops TX position,
// blocked at baseline.BlockAttenDB and recovering in
// baseline.MACRecovery) runs side by side with the optical plant over
// its own netem stream, and the policy.Controller fails delivered
// traffic over to it once the SLO breach lasts policy.BreachAfter
// (50 ms), re-admitting the FSO primary only after re-lock plus
// policy.ClearAfter (500 ms). Setting the pointer arms the policy; it
// has no tuning.
type HybridOptions struct{}

// HybridStats is the hybrid policy's contribution to a RunResult. Always
// nil without RunOptions.Hybrid.
type HybridStats struct {
	// Failovers / Readmits count the policy's PRIMARY→SECONDARY and
	// SECONDARY→PRIMARY transitions.
	Failovers int
	Readmits  int
	// SecondaryTicks counts ticks delivered traffic rode the mmWave link.
	SecondaryTicks int
	// DeliveredUpTicks counts ticks the *delivered* stream was up on
	// whichever medium carried it; DeliveredUpFraction normalizes by the
	// run's total ticks. RunResult.UpFraction still reports the FSO
	// link's own state — the delta between the two is what the policy
	// bought.
	DeliveredUpTicks    int
	DeliveredUpFraction float64
	// MinSecondaryDwell is the shortest completed failover→readmit dwell
	// (zero when none completed). Never below policy.ClearAfter — the
	// no-flap guarantee.
	MinSecondaryDwell time.Duration
	// SecondaryWindows are the shadow mmWave stream's 50 ms throughput
	// windows, measured for the whole run regardless of policy state
	// (the primary stream in RunResult.Windows carries the delivered
	// traffic, switching medium with the policy).
	SecondaryWindows []netem.Window
}

// hyState is the run-scoped hybrid machinery behind RunOptions.Hybrid.
// Everything is driven from runLoop.step, one Observe per tick, with no
// randomness of its own — a hybrid run is as bit-reproducible as the run
// it extends.
type hyState struct {
	sec *baseline.MmWaveLink
	ctl *policy.Controller
	// stream shadows the secondary: it measures the mmWave link every
	// tick of the run so SecondaryWindows is a full side-by-side trace,
	// not just the failover episodes. It carries no metrics — the run's
	// netem instruments belong to the delivered (primary) stream.
	stream *netem.Stream

	secondaryTicks int
	deliveredUp    int
}

func newHyState(reg *obs.Registry) *hyState {
	hy := &hyState{sec: baseline.NewMmWave()}
	hy.sec.Metrics = baseline.NewMmWaveMetrics(reg)
	hy.ctl = policy.New(policy.NewMetrics(reg))
	hy.stream = netem.NewStream()
	// Same MAC-level recovery baseline.Run models: mmWave reconnects
	// fast after a blockage, no optical re-lock.
	hy.stream.RampTime = baseline.MACRecovery
	return hy
}

// hyTick is the per-tick hybrid policy: step the mmWave secondary, feed
// the primary's SLO verdict to the controller, and route this tick's
// delivered-traffic accounting to whichever medium the policy picked. It
// owns the l.stream accounting entirely on hybrid runs (step's historical
// freeze/tick branch runs only when l.hy == nil).
func (l *runLoop) hyTick(at time.Duration, pose geom.Pose, fs fault.State, powerOK, up, degraded bool) {
	hy := l.hy

	// The mmWave path shares the FSO link's body-blockage exposure (§2.1)
	// but not its haze sensitivity: only the physical-obstruction
	// component of the injected attenuation blocks it.
	blocked := fs.AttenDB-fs.HazeDB >= baseline.BlockAttenDB
	g := hy.sec.Step(at, pose.Trans, blocked)
	hy.stream.Tick(at, tick, g > 0, g)

	// SLO verdict: locked AND above receiver sensitivity. Using the
	// monitor's up state makes the 3 s SFP re-lock tail count as
	// breaching, so re-admission waits for re-lock plus the clear window.
	healthy := up && powerOK
	st := hy.ctl.Observe(at, tick, healthy)

	if st.OnSecondary() {
		hy.secondaryTicks++
		if g > 0 {
			hy.deliveredUp++
		}
		// The mmWave link is carrying: delivered accounting follows it
		// even while the supervisor holds the FSO side in DEGRADED — the
		// whole point of the failover is zero delivered-availability loss
		// beyond the switch cost.
		l.stream.Tick(at, tick, g > 0, g)
		return
	}
	if up {
		hy.deliveredUp++
	}
	if degraded {
		l.stream.FreezeTick(at, tick)
	} else {
		l.stream.Tick(at, tick, up, l.s.Plant.Config.Transceiver.OptimalGoodputGbps)
	}
}

// finish folds the run's hybrid state into a HybridStats.
func (hy *hyState) finish(totalTicks int) *HybridStats {
	st := &HybridStats{
		Failovers:         hy.ctl.Failovers(),
		Readmits:          hy.ctl.Readmits(),
		SecondaryTicks:    hy.secondaryTicks,
		DeliveredUpTicks:  hy.deliveredUp,
		MinSecondaryDwell: hy.ctl.MinSecondaryDwell(),
		SecondaryWindows:  hy.stream.Finish(),
	}
	if totalTicks > 0 {
		st.DeliveredUpFraction = float64(hy.deliveredUp) / float64(totalTicks)
	}
	return st
}
