// Package link models the physical FSO link end to end: a TX galvo
// assembly fixed to the ceiling, an RX galvo assembly riding on the
// headset, and the radiometry connecting them. It is the "world" that the
// calibration and pointing algorithms act on — they may command voltages
// and read received power, while the plant computes what physically
// happens from hidden ground-truth geometry.
package link

import (
	"math"

	"cyclops/internal/galvo"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/pointing"
	"cyclops/internal/xrand"
)

// Plant is the physical link: two terminals plus current headset pose.
//
// World frame convention: Z is up, the floor is z=0. The TX is mounted on
// the ceiling with its coverage cone facing down; the headset starts near
// (0.35, 0.25, 1.0) so the nominal TX–RX range is ≈1.75 m, matching the
// prototype's 1.5–2 m rigs.
type Plant struct {
	Config optics.LinkConfig

	TXDev *galvo.Device
	RXDev *galvo.Device

	// txMount maps TX K-space into the world. Hidden installation truth.
	txMount geom.Pose
	// rxMount maps RX K-space into the headset frame. Hidden assembly
	// truth — the quantity footnote 8 says must be learned at
	// deployment.
	rxMount geom.Pose

	// Metrics, when non-nil, counts every ReceivedPowerDBm and ReadLight
	// read and observes the power of each ReceivedPowerDBm read. core.Run
	// attaches a per-run instrument set here and detaches it after.
	Metrics *PlantMetrics
	// AlignMetrics, when non-nil, counts the alignment search's
	// photodiode reads, which PlantMetrics does not see. core.Calibrate
	// attaches it for the calibration and detaches it after.
	AlignMetrics *AlignMetrics

	// attenDB is extra path attenuation applied to every radiometry
	// read — the injection surface for occlusion faults. The plant does
	// not know why the path darkened; it just attenuates.
	attenDB float64

	// FlexCoeff models the RX breadboard's gravity sag: the assembly
	// shifts within the headset frame by FlexCoeff meters per unit
	// change of the headset-frame gravity direction (≈1.7 mm at a 12°
	// tilt for the default 8 mm/unit). This is the "relative position
	// ... may not be perfectly fixed as assumed" effect the paper blames
	// for the RX model's larger combined error (§5.2); set it to 0 for
	// an ideally rigid assembly.
	FlexCoeff float64

	headset geom.Pose

	// anchor is the power certificate's last exact geometry read, and
	// certified counts the reads it settled: ReadLight verdicts and
	// alignment probes.
	anchor    certAnchor
	certified int
}

// DefaultHeadsetPose is where the headset rig starts: roughly under the
// transmitter at sitting height.
func DefaultHeadsetPose() geom.Pose {
	return geom.NewPose(geom.QuatIdentity(), geom.V(0.35, 0.25, 1.0))
}

// CeilingHeight is the TX mounting height, meters.
const CeilingHeight = 2.75

// NewPlant builds a plant with the given link design. The seed controls
// all hidden manufacturing and installation variation.
func NewPlant(cfg optics.LinkConfig, seed int64) *Plant {
	return NewPlantAt(cfg, seed, seed, geom.V(0, 0, CeilingHeight))
}

// NewPlantAt builds a plant whose TX is installed at txPos (aimed toward
// the default headset position so the coverage cone is centered on the
// play area). txSeed and rxSeed control the two terminals' hardware
// identities separately, which lets a multi-transmitter deployment share
// one physical RX assembly across several plants.
func NewPlantAt(cfg optics.LinkConfig, txSeed, rxSeed int64, txPos geom.Vec3) *Plant {
	var rng xrand.Rand
	rng.Seed(txSeed)

	// Aim the TX K-space +Z from its mount point toward the play area,
	// with a little installation slop.
	aimDir := DefaultHeadsetPose().Trans.Sub(txPos)
	if aimDir.IsZero() {
		aimDir = geom.V(0, 0, -1)
	}
	txAim := geom.RotationBetween(geom.V(0, 0, 1), aimDir)
	slop := geom.QuatFromAxisAngle(
		geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()+1e-9),
		rng.NormFloat64()*0.02,
	)
	txMount := geom.NewPose(slop.Mul(txAim), txPos)

	// The RX assembly sits on the headset breadboard, beam axis up with
	// small assembly slop, a few centimeters above the head origin. Its
	// identity derives from rxSeed so plants sharing an RX agree on it.
	rng.Seed(rxSeed + 7)
	rxSlop := geom.QuatFromAxisAngle(
		geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()+1e-9),
		rng.NormFloat64()*0.02,
	)
	rxMount := geom.NewPose(rxSlop, geom.V(0.05, 0.0, 0.12))

	return &Plant{
		Config:    cfg,
		TXDev:     galvo.NewUnit(txSeed + 100),
		RXDev:     galvo.NewUnit(rxSeed + 200),
		txMount:   txMount,
		rxMount:   rxMount,
		FlexCoeff: 0.008,
		headset:   DefaultHeadsetPose(),
	}
}

// SetHeadset moves the headset (true world pose).
func (p *Plant) SetHeadset(pose geom.Pose) { p.headset = pose }

// Headset returns the current true headset pose.
func (p *Plant) Headset() geom.Pose { return p.headset }

// TXMountTruth exposes the hidden TX installation pose (oracle use only).
func (p *Plant) TXMountTruth() geom.Pose { return p.txMount }

// RXMountTruth exposes the hidden RX assembly pose (oracle use only).
func (p *Plant) RXMountTruth() geom.Pose { return p.rxMount }

// RXWorldPose returns the current RX K-space → world transform, including
// the gravity flex of the assembly.
func (p *Plant) RXWorldPose() geom.Pose {
	return p.headset.Compose(p.rxMountEffective())
}

// rxMountEffective applies the breadboard's gravity sag to the nominal
// assembly pose: tilting the headset re-loads the board, shifting the
// optics within the headset frame.
func (p *Plant) rxMountEffective() geom.Pose {
	if p.FlexCoeff == 0 {
		return p.rxMount
	}
	down := geom.V(0, 0, -1)
	gLocal := p.headset.Rot.Conj().Rotate(down)
	sag := gLocal.Sub(down).Scale(p.FlexCoeff)
	return geom.NewPose(p.rxMount.Rot, p.rxMount.Trans.Add(sag))
}

// TXBeam returns the TX beam in world coordinates for the current TX
// voltages (with servo noise, as physically emitted).
func (p *Plant) TXBeam() (geom.Ray, error) {
	b, err := p.TXDev.Beam()
	if err != nil {
		return geom.Ray{}, err
	}
	return p.txMount.ApplyRay(b), nil
}

// RXReverseBeam returns Lemma 1's "imaginary beam emanating from RX" in
// world coordinates: the path light would take launched backward out of
// the RX collimator through the RX mirrors. Its origin is the capture
// point p_r on the RX second mirror; received light couples best when it
// arrives at that point traveling exactly opposite this direction.
func (p *Plant) RXReverseBeam() (geom.Ray, error) {
	b, err := p.RXDev.Beam()
	if err != nil {
		return geom.Ray{}, err
	}
	return p.RXWorldPose().ApplyRay(b), nil
}

// Misalignment reduces the current geometry to the radiometric scalars.
// Both devices draw their servo noise as TXBeam and RXReverseBeam would,
// the RX one only when the TX beam clears both of its mirrors. The read becomes
// the power certificate's anchor.
func (p *Plant) Misalignment() (optics.Misalignment, error) {
	var q draws
	q.t1, q.t2 = p.TXDev.Draw()
	return p.geometry(&q)
}

// geometry is Misalignment for q's draws. Without q.rxDrawn, geometry
// takes the RX draw once the TX beam has cleared both mirrors. A read that
// clears both assemblies becomes the anchor.
func (p *Plant) geometry(q *draws) (optics.Misalignment, error) {
	p.anchor.ok = false
	tb, txTrace, err := p.TXDev.TracedBeam(q.t1, q.t2)
	if err != nil {
		return optics.Misalignment{}, err
	}
	if !q.rxDrawn {
		q.r1, q.r2 = p.RXDev.Draw()
		q.rxDrawn = true
	}
	rb, rxTrace, err := p.RXDev.TracedBeam(q.r1, q.r2)
	if err != nil {
		return optics.Misalignment{}, err
	}
	tx := p.txMount.ApplyRay(tb)
	rx := p.RXWorldPose().ApplyRay(rb)

	capture := rx.Origin
	rng := capture.Dist(tx.Origin)

	// Lateral offset: distance from the capture point to the TX beam
	// axis.
	lateral := tx.DistanceTo(capture)

	// Local incoming ray direction at the capture point: from the beam
	// origin for a diverging beam (spherical wavefront), the beam axis
	// direction for a collimated one (plane wavefront).
	var incoming geom.Vec3
	if p.Config.Kind == optics.Diverging {
		incoming = capture.Sub(tx.Origin).Unit()
	} else {
		incoming = tx.Dir
	}
	mismatch := incoming.AngleTo(rx.Dir.Neg())

	m := optics.Misalignment{
		Range:             rng,
		LateralOffset:     lateral,
		IncidenceMismatch: mismatch,
	}
	p.anchor.set(p, txTrace, rxTrace, m, tx.Origin, capture)
	return m, nil
}

// PlantMetrics holds the plant's observability instruments.
type PlantMetrics struct {
	// Power is the received optical power distribution over exact reads:
	// core.Run takes one on each sample tick and a verdict on every other
	// tick, so its count is the run's sample count. Geometric failures
	// (-Inf power) are clamped to the lowest bucket so the histogram sum
	// stays finite.
	Power *obs.Histogram
	// Reads counts every read, exact or verdict: one per core.Run tick.
	Reads *obs.Counter
}

// NewPlantMetrics registers the plant instruments in reg (nil reg → nil
// metrics, recording disabled).
func NewPlantMetrics(reg *obs.Registry) *PlantMetrics {
	if reg == nil {
		return nil
	}
	return &PlantMetrics{
		Power: reg.Histogram("cyclops_link_received_power_dbm",
			"Instantaneous received optical power at the RX SFP, dBm.",
			[]float64{-60, -45, -40, -35, -30, -27, -24, -21, -18, -15, -12, -9, -6, -3, 0, 3, 6, 9, 12, 15, 18}),
		Reads: reg.Counter("cyclops_link_power_reads_total",
			"Radiometry reads (one per simulation tick during a run)."),
	}
}

func (m *PlantMetrics) observe(powerDBm float64) {
	if m == nil {
		return
	}
	m.Reads.Inc()
	if math.IsInf(powerDBm, -1) {
		powerDBm = -90 // below every bucket; keeps the sum finite
	}
	m.Power.Observe(powerDBm)
}

// SetAttenuationDB sets the extra optical path attenuation, in dB,
// applied to every subsequent radiometry read. Zero restores the clear
// path. This is the plant's only fault-injection surface: an occlusion
// schedule drives it, but the plant stays fault-agnostic.
func (p *Plant) SetAttenuationDB(db float64) { p.attenDB = db }

// AttenuationDB returns the current extra path attenuation, dB.
//
//cyclops:keep public API through cyclops.TXPlant
func (p *Plant) AttenuationDB() float64 { return p.attenDB }

// ReceivedPowerDBm returns the instantaneous optical power at the RX SFP.
// Geometric failure (a beam steered outside its own assembly) reads as no
// light.
//
//cyclops:hotpath the exact read of each core.Run sample tick; zero-alloc contract (nil Metrics) pinned by TestReceivedPowerDBmZeroAllocs and make alloc-check
func (p *Plant) ReceivedPowerDBm() float64 {
	m, err := p.Misalignment()
	if err != nil {
		p.Metrics.observe(math.Inf(-1))
		return math.Inf(-1)
	}
	power := p.Config.ReceivedPowerDBm(m) - p.attenDB
	p.Metrics.observe(power)
	return power
}

// ReadLight reports whether the instantaneous optical power at the RX SFP
// is at least floor: ReceivedPowerDBm() >= floor for every plant state,
// with the same servo-noise draws and the same one read on Metrics.Reads,
// but no Power observation. The light certificate settles most reads from
// the last exact geometry read without forming the geometry (DESIGN §8);
// LinkConfig.ReceivedPowerReaches settles most of the rest from certified
// power bounds without the capture integral.
//
//cyclops:hotpath read on every core.Run tick that records no sample; zero-alloc contract (nil Metrics) pinned by TestReadLightZeroAllocs and make alloc-check
func (p *Plant) ReadLight(floor float64) bool {
	if p.Metrics != nil {
		p.Metrics.Reads.Inc()
	}
	q := p.draw()
	if q.ok && p.anchor.light(p, floor, &q) {
		p.certified++
		return true
	}
	m, err := p.geometry(&q)
	if err != nil {
		return math.Inf(-1) >= floor
	}
	return p.Config.ReceivedPowerReaches(m, p.attenDB, floor)
}

// draws is one read's servo-noise draws, taken as Misalignment takes them,
// and, when ok, the beams' motion since the certificate's anchor
// (gma.BeamTrace.Moved): the TX origin by at most dOt and its direction by
// dDt, the RX K-space origin by dOr and its direction by dDr. The RX draw
// (r1, r2) is taken when rxDrawn is set, as it always is when ok is.
type draws struct {
	t1, t2, r1, r2     float64
	rxDrawn, ok        bool
	dOt, dDt, dOr, dDr float64
}

// draw takes one read's servo-noise draws, TX first. The RX draw comes
// only once the anchor shows that the TX beam certainly clears both of
// its mirrors, since an exact read takes it only then; otherwise geometry
// takes it when the beam does.
//
//cyclops:hotpath the servo-noise draws of every ReadLight and alignment probe; zero-alloc contract (nil Metrics) pinned by TestReadLightZeroAllocs, TestAlignReadZeroAllocs and make alloc-check
func (p *Plant) draw() draws {
	var q draws
	q.t1, q.t2 = p.TXDev.Draw()
	a := &p.anchor
	if !a.holds(p) {
		return q
	}
	var ok bool
	if q.dOt, q.dDt, ok = a.tx.Moved(q.t1, q.t2); !ok {
		return q
	}
	q.r1, q.r2 = p.RXDev.Draw()
	q.rxDrawn = true
	q.dOr, q.dDr, q.ok = a.rx.Moved(q.r1, q.r2)
	return q
}

// CertifiedReads returns how many reads the power certificate settled
// without the exact geometry: ReadLight verdicts and alignment probes.
//
//cyclops:keep test-only instrument: BenchmarkCalibrate and BenchmarkClosedLoopRun report the certified share, which is not an exposition line
func (p *Plant) CertifiedReads() int { return p.certified }

// Connected reports whether instantaneous power clears the SFP
// sensitivity. (For time-aware link state including re-lock delays, use
// Monitor.)
//
//cyclops:keep public API through cyclops.TXPlant
func (p *Plant) Connected() bool {
	return p.ReadLight(p.Config.Transceiver.SensitivityDBm)
}

// OracleAlignedVoltages computes the four perfectly aligning voltages from
// the hidden truth via the pointing algorithm. It stands in for the
// prototype's rough hand-aiming that precedes the §4.2 automated search,
// and serves as the test oracle for TP accuracy.
func (p *Plant) OracleAlignedVoltages() (pointing.Voltages, error) {
	gt := p.TXDev.Truth().Transformed(p.txMount)
	gr := p.RXDev.Truth().Transformed(p.RXWorldPose())
	res, err := pointing.Point(gt, gr, pointing.Voltages{})
	if err != nil {
		return pointing.Voltages{}, err
	}
	return res.V, nil
}

// ApplyVoltages commands both devices.
func (p *Plant) ApplyVoltages(v pointing.Voltages) {
	p.TXDev.SetVoltages(v.TX1, v.TX2)
	p.RXDev.SetVoltages(v.RX1, v.RX2)
}

// CurrentVoltages reads both devices.
func (p *Plant) CurrentVoltages() pointing.Voltages {
	t1, t2 := p.TXDev.Voltages()
	r1, r2 := p.RXDev.Voltages()
	return pointing.Voltages{TX1: t1, TX2: t2, RX1: r1, RX2: r2}
}
