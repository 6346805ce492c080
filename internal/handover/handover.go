// Package handover implements the multi-transmitter extension sketched in
// §3: "To circumvent occasional occlusions and/or limited field-of-view
// coverage of the GMs, we can use multiple TXs on the ceiling with
// appropriate handover techniques."
//
// An Array is several ceiling transmitters sharing one headset-mounted
// receiver. Occluders (a raised arm, another person) block individual
// TX→RX line-of-sight paths; the handover controller notices a dying path
// and re-points the receiver at the best unblocked transmitter. The
// package's experiment loop measures availability with and without
// handover under identical occlusion traffic — the ablation for the §3
// claim.
package handover

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// Occluder is a moving opaque sphere that blocks any beam path passing
// through it.
type Occluder struct {
	Radius float64
	// Path gives the center position over time.
	Path func(t time.Duration) geom.Vec3
}

// CrossingOccluder returns an occluder that repeatedly sweeps through the
// space between the play area and the ceiling: from start to end over
// period, then jumps back — a person walking through, an arm raised and
// lowered.
func CrossingOccluder(radius float64, start, end geom.Vec3, period time.Duration) Occluder {
	return Occluder{
		Radius: radius,
		Path: func(t time.Duration) geom.Vec3 {
			if period <= 0 {
				return start
			}
			frac := float64(t%period) / float64(period)
			return start.Lerp(end, frac)
		},
	}
}

// Array is a multi-TX deployment: one plant per transmitter, all sharing
// the receiver hardware identity and headset pose.
type Array struct {
	Plants    []*link.Plant
	Occluders []Occluder

	active int
}

// ErrNoTransmitters is returned for an empty position list.
var ErrNoTransmitters = errors.New("handover: no transmitter positions")

// NewArray installs transmitters at the given ceiling positions. The seed
// fixes all hidden variation; each TX gets its own hardware identity while
// the RX assembly is shared.
func NewArray(cfg optics.LinkConfig, seed int64, txPositions []geom.Vec3) (*Array, error) {
	if len(txPositions) == 0 {
		return nil, ErrNoTransmitters
	}
	a := &Array{}
	for i, pos := range txPositions {
		a.Plants = append(a.Plants, link.NewPlantAt(cfg, seed+int64(i)*31, seed, pos))
	}
	return a, nil
}

// RingPositions returns count ceiling mount points evenly ringed around
// the primary TX position at the given spacing — the default multi-TX
// placement the fig16-handover sweep and cyclops-sim's -tx flag use.
// count is the number of standby positions (the primary at the ring's
// center is not included).
func RingPositions(count int, spacing float64) []geom.Vec3 {
	pos := make([]geom.Vec3, 0, count)
	for k := 0; k < count; k++ {
		th := 2 * math.Pi * float64(k) / float64(count)
		pos = append(pos, geom.V(spacing*math.Cos(th), spacing*math.Sin(th), link.CeilingHeight))
	}
	return pos
}

// StandbysFor builds standby transmitter plants for an existing primary
// installation: one plant per position, each with its own TX hardware
// identity but sharing the primary's RX assembly identity (rxSeed must be
// the primary system's seed, so every plant agrees on the receiver it
// serves). The returned plants are the HandoverOptions.Standbys input of
// core.Run.
func StandbysFor(cfg optics.LinkConfig, rxSeed int64, positions []geom.Vec3) []*link.Plant {
	plants := make([]*link.Plant, 0, len(positions))
	for i, pos := range positions {
		plants = append(plants, link.NewPlantAt(cfg, rxSeed+int64(i+1)*31, rxSeed, pos))
	}
	return plants
}

// SetHeadset moves the (shared) headset on every plant.
func (a *Array) SetHeadset(p geom.Pose) {
	for _, pl := range a.Plants {
		pl.SetHeadset(p)
	}
}

// Active returns the index of the transmitting TX.
func (a *Array) Active() int { return a.active }

// Blocked reports whether TX i's line of sight to the receiver is blocked
// by any occluder at time t.
func (a *Array) Blocked(i int, t time.Duration) bool {
	pl := a.Plants[i]
	seg := geom.Segment{
		A: pl.TXMountTruth().Trans,
		B: pl.RXWorldPose().Trans,
	}
	for _, oc := range a.Occluders {
		if seg.DistanceTo(oc.Path(t)) < oc.Radius {
			return true
		}
	}
	return false
}

// PowerDBm returns the received power from TX i at time t: the plant's
// radiometric power, or no light when occluded or when i is not the
// transmitting cell (only the active TX's laser reaches the fiber).
func (a *Array) PowerDBm(i int, t time.Duration) float64 {
	if i != a.active {
		return math.Inf(-1)
	}
	if a.Blocked(i, t) {
		return math.Inf(-1)
	}
	return a.Plants[i].ReceivedPowerDBm()
}

// PointAt aligns the array on TX i: oracle pointing of that plant's two
// terminals (the handover study isolates the switching mechanism from
// learning error; the calibration pipeline is exercised elsewhere).
// It returns the realignment latency.
func (a *Array) PointAt(i int) (time.Duration, error) {
	v, err := a.Plants[i].OracleAlignedVoltages()
	if err != nil {
		return 0, fmt.Errorf("handover: pointing at TX %d: %w", i, err)
	}
	a.Plants[i].ApplyVoltages(v)
	a.active = i
	return 1800 * time.Microsecond, nil
}

// BestCandidate returns the unblocked TX whose (hypothetically aligned)
// geometry is closest to the receiver — the controller's switch target —
// or -1 if every path is blocked.
func (a *Array) BestCandidate(t time.Duration) int {
	best := -1
	bestDist := math.Inf(1)
	for i, pl := range a.Plants {
		if a.Blocked(i, t) {
			continue
		}
		d := pl.TXMountTruth().Trans.Dist(pl.RXWorldPose().Trans)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Result summarizes an occlusion run.
type Result struct {
	// LightFraction is the fraction of ticks with usable optical power
	// at the receiver.
	LightFraction float64
	// UpFraction includes SFP re-lock penalties after each dark period.
	UpFraction float64
	Handovers  int
	// Repoints counts every PointAt the run issued: the initial
	// alignment, the tracking-cadence repoints, and the handover
	// switches. Pinned by the repoint-cadence regression test.
	Repoints int
	// Ticks is the number of simulation slots the run covered — dur/tick
	// under the half-open convention shared with internal/sim.
	Ticks int
	// BlockedAllFraction is the fraction of ticks when every TX was
	// occluded (no controller can help there).
	BlockedAllFraction float64
}

// RunOptions configures an occlusion experiment.
type RunOptions struct {
	Program  motion.Program
	Duration time.Duration
	// Enable turns the handover controller on; off, the array sticks
	// with TX 0 (the single-TX baseline sees the same occluders).
	Enable bool
	// SwitchAfter is how long the active path must stay dark before the
	// controller switches (debounce against momentary flickers).
	SwitchAfter time.Duration
}

// Run drives the array through the motion program under its occluders.
func (a *Array) Run(opts RunOptions) (Result, error) {
	if opts.Program == nil {
		return Result{}, errors.New("handover: no motion program")
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = opts.Program.Duration()
	}
	if opts.SwitchAfter <= 0 {
		opts.SwitchAfter = 20 * time.Millisecond
	}
	const tick = time.Millisecond
	const repointEvery = 12 * time.Millisecond

	mon := link.NewMonitor(a.Plants[0].Config.Transceiver)
	a.SetHeadset(opts.Program.Pose(0))
	if _, err := a.PointAt(0); err != nil {
		return Result{}, err
	}

	var res Result
	res.Repoints++ // the initial alignment above
	var ticks, light, up, allBlocked int
	var darkSince time.Duration = -1
	var repointUntil time.Duration = -1

	// Re-point the active TX on the tracking cadence (oracle): keeps the
	// active path aligned as the headset moves.
	var nextPoint time.Duration

	// Half-open [0, dur): dur/tick slots, the same fencepost convention
	// internal/sim's availability and chaos loops use, so the two stacks'
	// availability denominators agree slot for slot. (core.Run keeps its
	// own deliberate closed-interval loop — see the note there.)
	for at := time.Duration(0); at < dur; at += tick {
		a.SetHeadset(opts.Program.Pose(at))

		if at >= nextPoint && at >= repointUntil {
			if _, err := a.PointAt(a.active); err == nil {
				res.Repoints++
				nextPoint = at + repointEvery
			}
		}

		power := a.PowerDBm(a.active, at)
		if at < repointUntil {
			power = math.Inf(-1) // mirrors still slewing to the new TX
		}

		hasLight := power >= a.Plants[0].Config.Transceiver.SensitivityDBm
		if hasLight {
			light++
			darkSince = -1
		} else if darkSince < 0 && at >= repointUntil {
			// Start the dark clock only once the mirrors have settled on
			// the new TX: the forced darkness of the slew window must not
			// count against the SwitchAfter debounce, or any SwitchAfter
			// at or below the realignment latency flaps straight off a
			// TX the controller just switched to.
			darkSince = at
		}

		// Handover decision.
		if opts.Enable && darkSince >= 0 && at-darkSince >= opts.SwitchAfter {
			if cand := a.BestCandidate(at); cand >= 0 && cand != a.active {
				if lat, err := a.PointAt(cand); err == nil {
					res.Handovers++
					res.Repoints++
					repointUntil = at + lat
					darkSince = -1
					// The switch realigned everything: push the tracking
					// cadence out past the slew, or the first settled tick
					// issues a redundant PointAt and the cadence phase
					// shifts against single-TX runs.
					nextPoint = at + lat + repointEvery
				}
			}
		}

		if mon.Observe(at, power) {
			up++
		}
		everyBlocked := true
		for i := range a.Plants {
			if !a.Blocked(i, at) {
				everyBlocked = false
				break
			}
		}
		if everyBlocked {
			allBlocked++
		}
		ticks++
	}

	res.Ticks = ticks
	res.LightFraction = float64(light) / float64(ticks)
	res.UpFraction = float64(up) / float64(ticks)
	res.BlockedAllFraction = float64(allBlocked) / float64(ticks)
	return res, nil
}
