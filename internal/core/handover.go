package core

import (
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/pointing"
)

// The handover arm's fixed timing and blocking threshold.
const (
	// switchAfter is how long the active path must stay dark before the
	// controller switches: one slot of debounce.
	switchAfter = time.Millisecond
	// freshEvery is the standby pre-point refresh cadence, the tracker's
	// own report cadence.
	freshEvery = 12 * time.Millisecond
	// losHold is the SFP's LOS-assert window (Monitor.HoldOver): dark
	// spells shorter than this do not unlock the transceiver, which is
	// what lets a ~2 ms switch ride through without the re-lock penalty.
	losHold = 5 * time.Millisecond
	// failbackAfter is how long the primary path must stay clear before a
	// lit run switches back to it.
	failbackAfter = 500 * time.Millisecond
	// blockAttenDB is the injected physical-obstruction attenuation at or
	// above which a handover candidate's path counts as blocked. 10 dB is
	// the 25G budget's full margin, the same depth the sim chaos model
	// uses.
	blockAttenDB = 10
)

// hoState is the run-scoped make-before-break machinery behind
// RunOptions.Handover. plants[0] is the primary (the System's own plant at
// Run start); the rest are the caller's standbys. Everything here is driven
// from runLoop.step, one decision per tick, with no randomness of its own —
// a handover run is as bit-reproducible as the faulted run it extends.
type hoState struct {
	plants []*link.Plant
	// faults[k] reads TX k's path fault schedule (a nil schedule reads
	// the clear path); faults[0] reads RunOptions.Faults so candidate
	// checks read every path uniformly. Every read is at the current
	// tick, so each cursor only moves forward.
	faults []fault.Cursor
	active int

	// Pre-point cache: the freshest oracle mirror solution per inactive
	// TX, refreshed on the freshEvery cadence but only applied at a
	// switch — the "make" of make-before-break.
	preV  []pointing.Voltages
	preAt []time.Duration
	preOK []bool

	nextFresh time.Duration
	// darkSince clocks sustained loss of optical signal on the active
	// path (−1 while lit); settleUntil carves the post-switch slew window
	// out of that clock (TestRunHandoverNoFlapDuringSlew) and holds off
	// tracking re-points until the switch lands.
	darkSince   time.Duration
	settleUntil time.Duration
	// clearSince0 clocks how long the primary path has been clear while
	// a standby is active (−1 while blocked) — the failback condition.
	clearSince0 time.Duration
}

func newHoState(s *System, o *HandoverOptions, primary *fault.Schedule) *hoState {
	ho := &hoState{}
	ho.plants = make([]*link.Plant, 0, len(o.Standbys)+1)
	ho.plants = append(ho.plants, s.Plant)
	ho.plants = append(ho.plants, o.Standbys...)
	ho.faults = make([]fault.Cursor, len(ho.plants))
	ho.faults[0] = primary.Cursor()
	for i, f := range o.StandbyFaults {
		ho.faults[i+1] = f.Cursor()
	}
	n := len(ho.plants)
	ho.preV = make([]pointing.Voltages, n)
	ho.preAt = make([]time.Duration, n)
	ho.preOK = make([]bool, n)
	ho.darkSince = -1
	ho.settleUntil = -1
	ho.clearSince0 = -1
	return ho
}

// setOtherHeadsets mirrors the headset pose onto every plant except the
// active one (which step already moved).
func (ho *hoState) setOtherHeadsets(active *link.Plant, p geom.Pose) {
	for _, pl := range ho.plants {
		if pl != active {
			pl.SetHeadset(p)
		}
	}
}

// applyAtten applies each path's scheduled attenuation to its plant and
// returns the active path's value (for fault-state coherence in step).
func (ho *hoState) applyAtten(at time.Duration) float64 {
	var activeAtten float64
	for k, p := range ho.plants {
		a := ho.faults[k].At(at).AttenDB
		p.SetAttenuationDB(a)
		if k == ho.active {
			activeAtten = a
		}
	}
	return activeAtten
}

// pathAtten reads TX k's scheduled attenuation without touching any plant.
func (ho *hoState) pathAtten(at time.Duration, k int) float64 {
	return ho.faults[k].At(at).AttenDB
}

// candidate returns the best switch target at time at: the clear-path,
// successfully pre-pointed TX geometrically closest to the receiver — or
// −1 when every other path is blocked (nothing to switch to; the ordinary
// outage machinery owns the episode).
func (ho *hoState) candidate(at time.Duration) int {
	best := -1
	bestDist := math.Inf(1)
	for k, p := range ho.plants {
		if k == ho.active || !ho.preOK[k] {
			continue
		}
		if ho.pathAtten(at, k) >= blockAttenDB {
			continue
		}
		d := p.TXMountTruth().Trans.Dist(p.RXWorldPose().Trans)
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// hoTick is the per-tick handover controller: refresh standby pre-points,
// clock darkness on the active path, switch to the best clear standby once
// the debounce matures, and fail back to the primary after its path has
// stayed clear for failbackAfter.
func (l *runLoop) hoTick(at time.Duration, powerOK bool) {
	ho := l.ho

	// Pre-point refresh ("make"): every inactive TX keeps a fresh oracle
	// mirror solution ready, so the eventual switch ("break") costs one
	// slew, not a solve.
	if at >= ho.nextFresh {
		for k, p := range ho.plants {
			if k == ho.active {
				continue
			}
			v, err := p.OracleAlignedVoltages()
			ho.preOK[k] = err == nil
			if err == nil {
				ho.preV[k], ho.preAt[k] = v, at
			}
		}
		ho.nextFresh = at + freshEvery
	}

	// Failback bookkeeping: while a standby is active, clock how long the
	// primary path has been continuously clear.
	if ho.active != 0 {
		if ho.pathAtten(at, 0) >= blockAttenDB {
			ho.clearSince0 = -1
		} else if ho.clearSince0 < 0 {
			ho.clearSince0 = at
		}
	}

	// Dark clock, with the post-switch slew window carved out: the forced
	// darkness while the mirrors slew to the new TX must not re-arm the
	// debounce, or a switchAfter at or below the realignment latency
	// would flap straight off the TX we just switched to.
	if powerOK {
		ho.darkSince = -1
	} else if ho.darkSince < 0 && at >= ho.settleUntil {
		ho.darkSince = at
	}

	if ho.darkSince >= 0 && at-ho.darkSince >= switchAfter {
		if k := ho.candidate(at); k >= 0 {
			l.hoSwitch(at, k)
			return
		}
	}

	// Failback: light is on, the primary has been clear long enough, and
	// its pre-point is good — re-admit it (make-before-break again; the
	// monitor's holdover rides through the slew).
	if ho.active != 0 && powerOK && ho.clearSince0 >= 0 &&
		at-ho.clearSince0 >= failbackAfter && ho.preOK[0] {
		l.hoSwitch(at, 0)
	}
}

// hoSwitch executes the switch to TX k: the System's plant becomes k's,
// the cached pre-point voltages go in flight as a pending command landing
// after one hardware latency, and the supervisor records the handover.
func (l *runLoop) hoSwitch(at time.Duration, k int) {
	ho := l.ho
	ho.active = k
	l.s.Plant = ho.plants[k]
	l.pendingV = ho.preV[k]
	lat := hardwareLatency(l.s)
	l.pendingAt = at + lat
	ho.settleUntil = l.pendingAt
	ho.darkSince = -1
	ho.clearSince0 = -1
	if l.sup != nil {
		l.sup.BeginHandover(at, at-ho.preAt[k])
	}
}
