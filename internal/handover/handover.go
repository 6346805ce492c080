// Package handover holds the multi-transmitter geometry behind the §3
// extension: "To circumvent occasional occlusions and/or limited
// field-of-view coverage of the GMs, we can use multiple TXs on the
// ceiling with appropriate handover techniques."
//
// It places standby ceiling transmitters (RingPositions) and builds their
// plants around a primary installation's receiver (StandbysFor); the
// handover controller itself is core.Run's make-before-break arm
// (RunOptions.Handover). Occluder is the moving opaque sphere the arena
// venue model blocks beam paths with.
package handover

import (
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/optics"
)

// Occluder is a moving opaque sphere that blocks any beam path passing
// through it.
type Occluder struct {
	Radius float64
	// Path gives the center position over time.
	Path func(t time.Duration) geom.Vec3
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
