package link

import (
	"math"

	"cyclops/internal/galvo"
	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/optics"
)

// certAnchor is the power certificate's anchor: the last exact geometry
// read and what it depends on. Between exact reads the headset moves a
// little, the servo noise jitters both beams and the alignment search
// steps the voltages, so a later read bounds how far the misalignment can
// have drifted since the anchor (DESIGN §8). ReadLight settles "light"
// when the lower power bound holds at the worst misalignment within that
// drift; an alignment probe settles "dark", at most the scan's best, when
// the upper bound holds at the best misalignment within it and every beam
// radius the range can take.
type certAnchor struct {
	ok bool

	// What the anchored geometry depends on besides the headset pose and
	// the servo noise. Voltages are not among them: the noise bound
	// covers any change of a device's voltages since the anchor.
	txDev, rxDev *galvo.Device
	cfg          optics.LinkConfig
	flex         float64

	// The anchored read: the headset pose, both beams' traces (holding
	// their noise draws), the misalignment, and lever, the capture
	// point's distance from the headset origin.
	head   geom.Pose
	tx, rx gma.BeamTrace
	m      optics.Misalignment
	lever  float64
}

// drift bounds how far, in either direction, the range, the lateral
// offset and the incidence mismatch can have moved since the anchor,
// certMargin included.
type drift struct{ rng, lat, mis float64 }

const (
	// certMargin, in meters and radians, covers the rounding of the
	// geometry reads and of the drift bound itself: below 1e-10 for the
	// magnitudes the anchor admits.
	certMargin = 1e-9
	// quatUnitTol is how far from 1 the squared norm of the headset
	// orientation may be: a non-unit quaternion rotates and scales, and
	// within 1e-12 the scaling stays far inside certMargin.
	quatUnitTol = 1e-12
	// An anchor needs a positive range, a capture point and a flex
	// coefficient within anchorMaxLever of the headset origin, and every
	// position within anchorMaxCoord of the world origin, so that
	// rounding stays at the scale certMargin covers.
	anchorMinRange = 1e-6
	anchorMaxLever = 10
	anchorMaxCoord = 1e3
	// piOver3 turns a chord c ≤ 1 between unit vectors into a bound on
	// their angle, 2·asin(c/2) ≤ (π/3)·c, and a displacement r ≤ 1/2 of
	// a unit vector into one on its turn, asin(r) ≤ (π/3)·r.
	piOver3 = math.Pi / 3
)

// set makes the read of p's current state, with beam traces tx and rx,
// misalignment m, TX beam origin txOrigin and capture point capture, the
// anchor.
func (a *certAnchor) set(p *Plant, tx, rx gma.BeamTrace, m optics.Misalignment, txOrigin, capture geom.Vec3) {
	lever := capture.Dist(p.headset.Trans)
	*a = certAnchor{
		ok: m.Range > anchorMinRange &&
			lever+math.Abs(p.FlexCoeff) <= anchorMaxLever &&
			txOrigin.Norm() <= anchorMaxCoord &&
			capture.Norm() <= anchorMaxCoord &&
			p.headset.Trans.Norm() <= anchorMaxCoord &&
			unitQuat(p.headset.Rot),
		txDev: p.TXDev,
		rxDev: p.RXDev,
		cfg:   p.Config,
		flex:  p.FlexCoeff,
		head:  p.headset,
		tx:    tx,
		rx:    rx,
		m:     m,
		lever: lever,
	}
}

// holds reports whether the anchor describes p's devices, design and
// assembly.
func (a *certAnchor) holds(p *Plant) bool {
	return a.ok && a.txDev == p.TXDev && a.rxDev == p.RXDev && a.flex == p.FlexCoeff && a.cfg == p.Config
}

// light reports whether p's power is certainly at least floor, given the
// beams' motion since the anchor in q.
//
//cyclops:hotpath evaluated on every ReadLight with a standing anchor; zero-alloc contract (nil Metrics) pinned by TestReadLightZeroAllocs and make alloc-check
func (a *certAnchor) light(p *Plant, floor float64, q *draws) bool {
	d, ok := a.drift(p.headset, q)
	return ok && p.Config.ReceivedPowerAtLeastWithin(a.worst(d), p.attenDB, floor)
}

// dark reports whether p's power is certainly at most floor, given the
// beams' motion since the anchor in q: ReceivedPowerAtMostWithin at the
// smallest misalignment within the drift, over the range interval the
// drift leaves.
//
//cyclops:hotpath evaluated on every settling alignment probe with a standing anchor; zero-alloc contract pinned by TestAlignReadZeroAllocs and make alloc-check
func (a *certAnchor) dark(p *Plant, floor float64, q *draws) bool {
	d, ok := a.drift(p.headset, q)
	if !ok {
		return false
	}
	near := optics.Misalignment{
		Range:             a.m.Range - d.rng,
		LateralOffset:     max(a.m.LateralOffset-d.lat, 0),
		IncidenceMismatch: max(a.m.IncidenceMismatch-d.mis, 0),
	}
	return p.Config.ReceivedPowerAtMostWithin(near, a.m.Range+d.rng, p.attenDB, floor)
}

// drift bounds the misalignment's motion from the anchor to headset pose
// h and beams moved as q records. ok is false when a premise of the bound
// fails. DESIGN §8 derives each term; FuzzLightDrift holds them above the
// exact reads.
//
//cyclops:hotpath the rigid-motion and noise bound of every certified read; zero-alloc contract (nil Metrics) pinned by TestReadLightZeroAllocs, TestAlignReadZeroAllocs and make alloc-check
func (a *certAnchor) drift(h geom.Pose, q *draws) (drift, bool) {
	if !unitQuat(h.Rot) {
		return drift{}, false
	}
	// The capture point is R(h)·ℓ + T(h), ℓ its headset-frame position
	// (|ℓ| = lever) with the gravity sag inside it: the rotation moves it
	// by g·lever and the sag by g·|FlexCoeff|, the RX noise by dOr.
	g := geom.RotationGap(a.head.Rot, h.Rot)
	dC := g*(a.lever+math.Abs(a.flex)) + q.dOr + h.Trans.Dist(a.head.Trans)
	// dX bounds the motion of capture − TX origin, so of the range.
	dX := dC + q.dOt
	if !(dX <= a.m.Range/2 && g <= 1) {
		return drift{}, false
	}
	dIn := q.dDt // a collimated beam arrives along the TX direction
	if a.cfg.Kind == optics.Diverging {
		dIn = piOver3 * dX / a.m.Range
	}
	// The nearest point on either TX ray lies within its range of the
	// origin, and the larger range is at most Range + dX.
	return drift{
		rng: dX + certMargin,
		lat: dX + (a.m.Range+dX)*q.dDt + certMargin,
		mis: dIn + piOver3*g + q.dDr + certMargin,
	}, true
}

// worst is the worst misalignment within drift d of the anchor's.
func (a *certAnchor) worst(d drift) optics.Misalignment {
	return optics.Misalignment{
		Range:             a.m.Range + d.rng,
		LateralOffset:     a.m.LateralOffset + d.lat,
		IncidenceMismatch: a.m.IncidenceMismatch + d.mis,
	}
}

// unitQuat reports whether q's squared norm is within quatUnitTol of 1.
func unitQuat(q geom.Quat) bool {
	return math.Abs(q.W*q.W+q.X*q.X+q.Y*q.Y+q.Z*q.Z-1) <= quatUnitTol
}
