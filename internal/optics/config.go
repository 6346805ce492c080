package optics

import (
	"fmt"
	"math"
)

// BeamKind selects between the two §5.1 design options.
type BeamKind int

const (
	// Collimated is option (a): a wide collimated beam from a beam
	// expander. High peak power, narrow angular tolerance.
	Collimated BeamKind = iota
	// Diverging is option (b): an adjustable-collimator beam whose
	// divergence is set so the beam reaches a chosen diameter at the
	// receiver. Lower peak power, much wider tolerance.
	Diverging
)

func (k BeamKind) String() string {
	switch k {
	case Collimated:
		return "collimated"
	case Diverging:
		return "diverging"
	default:
		return fmt.Sprintf("BeamKind(%d)", int(k))
	}
}

// LinkConfig captures everything radiometric about one link design: the
// transceiver, amplifier, beam option, and the calibration constants that
// encode how the prototype's optics behave. The geometric state (where the
// terminals are, how the beam actually travels) lives in internal/link;
// this type answers "given these misalignment scalars, what power arrives?"
type LinkConfig struct {
	Name        string
	Transceiver Transceiver
	Amp         Amplifier
	Kind        BeamKind

	// NominalRange is the design TX–RX distance, meters (1.5–2 m rigs;
	// we use 1.75 m as the paper's own simulation does).
	NominalRange float64

	// LaunchRadius is the 1/e² beam radius at the TX output.
	LaunchRadius float64

	// RXBeamDiameter is the target 1/e² beam diameter at NominalRange
	// for the diverging option (ignored for collimated). Table 1 used
	// 20 mm; Fig 11 sweeps it; 16 mm is the chosen optimum.
	RXBeamDiameter float64

	// ApertureRadius is the receive collimator clear radius.
	ApertureRadius float64

	// BaseInsertionDB is the fixed insertion loss: connectors, fiber,
	// mirror reflectivity, and (for the diverging option) the residual
	// mode mismatch at zero divergence.
	BaseInsertionDB float64

	// DivergenceLossDBPerMrad2 is the extra fiber-coupling loss per
	// mrad² of divergence half-angle: capturing a spherical wavefront
	// with collimator optics designed for plane waves costs quadratically
	// in the wavefront curvature. Calibrated so the 20 mm diverging beam
	// shows the paper's ~30 dB coupling loss.
	DivergenceLossDBPerMrad2 float64

	// AcceptBaseMrad and AcceptPerMradDiv set the receiver's angular
	// acceptance (1/e² half-angle, mrad) as acceptance = base + k·δ
	// where δ is the divergence half-angle in mrad: a diverging beam's
	// wider angular spectrum relaxes the incidence-angle requirement.
	AcceptBaseMrad   float64
	AcceptPerMradDiv float64

	// LateralAcceptance, when non-zero, adds a focal-plane walk-off
	// penalty: a lateral offset d of the receive optics from the beam
	// axis displaces the focused image on the fiber facet, costing
	// exp(-2·(d/LateralAcceptance)²) of coupled power in addition to
	// the aperture-overlap and incidence-angle terms. The 25G receive
	// chain (tight adjustable-focus collimators into SFP28s) exhibits
	// this strongly — it is why §5.3.1 reports only ~6 mm of lateral
	// tolerance despite ~8.7 mrad of angular tolerance. Zero disables
	// the term (the 10G multimode chain is comparatively insensitive).
	LateralAcceptance float64
}

// Beam returns the Gaussian beam this configuration launches.
func (c LinkConfig) Beam() GaussianBeam {
	return GaussianBeam{W0: c.LaunchRadius, Divergence: c.DivergenceHalfAngle()}
}

// DivergenceHalfAngle returns the design divergence half-angle in radians
// (0 for collimated).
func (c LinkConfig) DivergenceHalfAngle() float64 {
	if c.Kind == Collimated {
		return 0
	}
	return DivergenceFor(c.LaunchRadius, c.RXBeamDiameter, c.NominalRange)
}

// InsertionLossDB returns the total fixed loss for this design, including
// the divergence-dependent fiber-coupling penalty.
func (c *LinkConfig) InsertionLossDB() float64 {
	d := ToMrad(c.DivergenceHalfAngle())
	return c.BaseInsertionDB + c.DivergenceLossDBPerMrad2*d*d
}

// AngularAcceptance returns the receiver's angular acceptance (1/e²
// half-angle) in radians.
func (c *LinkConfig) AngularAcceptance() float64 {
	d := ToMrad(c.DivergenceHalfAngle())
	return Mrad(c.AcceptBaseMrad + c.AcceptPerMradDiv*d)
}

// Misalignment describes the geometric state of the link reduced to the
// three scalars that determine received power.
type Misalignment struct {
	// Range is the TX-origin → RX-aperture distance, meters.
	Range float64
	// LateralOffset is the distance from the beam axis to the RX
	// aperture center, measured in the aperture plane, meters.
	LateralOffset float64
	// IncidenceMismatch is the angle between the receive collimator's
	// optical axis and the local incoming ray direction at the aperture
	// center, radians. For a diverging beam the local ray direction
	// points from the beam origin to the aperture center; for a
	// collimated beam it is the beam axis direction.
	IncidenceMismatch float64
}

// ReceivedPowerDBm returns the power arriving at the receiver's SFP for a
// given misalignment. Perfect alignment (zero offsets) yields the peak
// received power of Table 1.
//
//cyclops:hotpath the exact radiometry behind core.Run's sample ticks, the verdicts no bound settles and the alignment search; zero-alloc contract pinned by TestReceivedPowerDBmZeroAllocs and make alloc-check
func (c *LinkConfig) ReceivedPowerDBm(m Misalignment) float64 {
	r := c.read(m)
	return r.exactDBm()
}

// ReceivedPowerAtMost reports whether ReceivedPowerDBm(m) - attenDB is
// certainly at most floor, judged from upper bounds on the capture
// fraction without evaluating CaptureFraction. False means undecided, not
// above floor. The first tier assumes the aperture catches the whole beam;
// the second, for an aperture clear of the beam axis, takes
// captureEnvelope less captureLogMarginDB of Log10 rounding. DESIGN §8
// proves both never below the exact read after rounding.
//
//cyclops:hotpath one call per coarse probe of the §4.2 alignment search; zero-alloc contract pinned by TestReceivedPowerAtMostZeroAllocs and make alloc-check
func (c *LinkConfig) ReceivedPowerAtMost(m Misalignment, attenDB, floor float64) bool {
	r := c.read(m)
	return r.atMost(attenDB, floor)
}

// ReceivedPowerAtLeast reports whether ReceivedPowerDBm(m) - attenDB is
// certainly at least floor, judged from a lower bound on the capture
// fraction without evaluating CaptureFraction. False means undecided, not
// below floor. The bound exists only for an aperture over the beam axis:
// captureDisk, the beam's share inside the disk of radius a − |d| around
// its axis, plus captureLogMarginDB of Log10 rounding on the loss. DESIGN
// §8 proves it never above the exact read after rounding.
//
//cyclops:hotpath the certified "light" half of every ReceivedPowerReaches verdict; zero-alloc contract pinned by TestReceivedPowerAtLeastZeroAllocs and make alloc-check
//cyclops:keep public API through cyclops.LinkConfig; ReceivedPowerReaches applies the same bound to its shared read
func (c *LinkConfig) ReceivedPowerAtLeast(m Misalignment, attenDB, floor float64) bool {
	r := c.read(m)
	return r.atLeast(attenDB, floor)
}

// ReceivedPowerReaches reports whether ReceivedPowerDBm(m) - attenDB >=
// floor, with the same answer for every input, NaN and infinities
// included. It evaluates the link budget once and settles the verdict from
// ReceivedPowerAtLeast's lower bound or ReceivedPowerAtMost's upper bounds
// when they decide it, so CaptureFraction runs only for a read near floor.
//
//cyclops:hotpath the verdict behind Plant.ReadLight on every core.Run tick that records no sample; zero-alloc contract pinned by TestReceivedPowerReachesZeroAllocs and make alloc-check
func (c *LinkConfig) ReceivedPowerReaches(m Misalignment, attenDB, floor float64) bool {
	r := c.read(m)
	if r.atLeast(attenDB, floor) {
		return true
	}
	// Certainly at most the float below floor is certainly below floor;
	// a -Inf floor has no float below it and only a NaN read misses it.
	if floor > math.Inf(-1) && r.atMost(attenDB, math.Nextafter(floor, math.Inf(-1))) {
		return false
	}
	return r.exactDBm()-attenDB >= floor
}

// linkRead is one misalignment's link budget with the geometric capture
// loss left open: the capture integral's inputs and every other term of
// the budget, each computed once so the exact read and its bounds share
// them.
type linkRead struct {
	// w is the beam's 1/e² radius at the receiver, a the aperture radius
	// and d the lateral offset's magnitude.
	w, a, d float64
	// p0 is the launch power plus amplifier gain less the insertion
	// loss, angDB the incidence-angle coupling loss and latDB the
	// focal-plane walk-off loss (0 when LateralAcceptance is 0).
	p0, angDB, latDB float64
}

// read evaluates m's budget terms. A non-positive range stands for the
// nominal one.
func (c *LinkConfig) read(m Misalignment) linkRead {
	rng := m.Range
	if rng <= 0 {
		rng = c.NominalRange
	}
	r := linkRead{
		w:     c.Beam().RadiusAt(rng),
		a:     c.ApertureRadius,
		d:     math.Abs(m.LateralOffset),
		p0:    c.Transceiver.TxPowerDBm + c.Amp.GainDB - c.InsertionLossDB(),
		angDB: FractionToDB(AngleCouplingFraction(m.IncidenceMismatch, c.AngularAcceptance())),
	}
	if c.LateralAcceptance > 0 {
		lat := m.LateralOffset / c.LateralAcceptance
		r.latDB = FractionToDB(math.Exp(-2 * lat * lat))
	}
	return r
}

// dBm is the link budget given the geometric capture loss in dB: the one
// expression behind both the exact read and its bounds. It is
// non-increasing in geoLossDB after rounding, since it only adds and
// subtracts it (and subtracting a zero latDB leaves every value as it is).
func (r *linkRead) dBm(geoLossDB float64) float64 {
	return (r.p0 - (geoLossDB + r.angDB)) - r.latDB
}

// exactDBm is the budget at the capture integral's loss.
func (r *linkRead) exactDBm() float64 {
	return r.dBm(FractionToDB(CaptureFraction(r.w, r.a, r.d)))
}

// atMost is ReceivedPowerAtMost on the shared read.
func (r *linkRead) atMost(attenDB, floor float64) bool {
	if r.dBm(0)-attenDB <= floor {
		return true
	}
	if !(r.d > r.a) {
		return false
	}
	env := captureEnvelope(r.w, r.a, r.d)
	return r.dBm(FractionToDB(env)-captureLogMarginDB)-attenDB <= floor
}

// atLeast is ReceivedPowerAtLeast on the shared read.
func (r *linkRead) atLeast(attenDB, floor float64) bool {
	disk := captureDisk(r.w, r.a, r.d)
	if !(disk > 0) {
		return false
	}
	return r.dBm(FractionToDB(disk)+captureLogMarginDB)-attenDB >= floor
}

// captureLogMarginDB is the allowance for Log10's rounding, whose error is
// below 1e-11 dB of loss for any positive fraction: subtracted from the
// envelope's geometric loss and added to the disk's, it keeps each bound's
// loss on its side of the exact one wherever the bound's fraction is.
const captureLogMarginDB = 1e-9

// PeakReceivedPowerDBm is the aligned-link received power.
func (c LinkConfig) PeakReceivedPowerDBm() float64 {
	return c.ReceivedPowerDBm(Misalignment{Range: c.NominalRange})
}

// MarginDB is the dB of additional loss the aligned link can absorb
// before the receiver loses signal.
func (c LinkConfig) MarginDB() float64 {
	return c.PeakReceivedPowerDBm() - c.Transceiver.SensitivityDBm
}

// Connected reports whether the received power for the given misalignment
// clears the receiver sensitivity.
func (c LinkConfig) Connected(m Misalignment) bool {
	return c.ReceivedPowerReaches(m, 0, c.Transceiver.SensitivityDBm)
}

// WithRXDiameter returns a copy with the diverging beam retargeted to the
// given 1/e² diameter at the receiver (the Fig 11 sweep knob).
func (c LinkConfig) WithRXDiameter(d float64) LinkConfig {
	c.RXBeamDiameter = d
	c.Name = fmt.Sprintf("%s %.0fmm@RX", c.Transceiver.Name, ToMM(d))
	return c
}

// Standard link designs, calibrated to the prototype's Table 1 / §5.3.1
// characteristics. See DESIGN.md for the calibration derivation.
var (
	// Collimated10G is §5.1 option (a): BE02-05-C 20 mm collimated beam,
	// 10G ZR SFPs. Peak ≈ +15 dBm, tolerances ≈ 2 mrad.
	Collimated10G = LinkConfig{
		Name:            "10G collimated 20mm",
		Transceiver:     SFP10GZR,
		Amp:             EDFA,
		Kind:            Collimated,
		NominalRange:    1.75,
		LaunchRadius:    BE02Expander.LaunchRadius,
		ApertureRadius:  F810FC.ApertureRadius,
		BaseInsertionDB: 5,
		AcceptBaseMrad:  1.0,
	}

	// Diverging10G is §5.1 option (b) at the Table 1 operating point:
	// CFC-2X-C launch, 20 mm 1/e² diameter at RX. Peak ≈ −10 dBm,
	// RX tolerance ≈ 5–6 mrad.
	Diverging10G = LinkConfig{
		Name:                     "10G diverging 20mm@RX",
		Transceiver:              SFP10GZR,
		Amp:                      EDFA,
		Kind:                     Diverging,
		NominalRange:             1.75,
		LaunchRadius:             CFC2X.LaunchRadius,
		RXBeamDiameter:           MM(20),
		ApertureRadius:           F810FC.ApertureRadius,
		BaseInsertionDB:          10,
		DivergenceLossDBPerMrad2: 0.957,
		AcceptBaseMrad:           1.83,
		AcceptPerMradDiv:         0.487,
	}

	// Diverging10G16mm is the chosen §5.1 design: 16 mm beam diameter at
	// RX, where the RX angular tolerance peaks (Fig 11).
	Diverging10G16mm = Diverging10G.WithRXDiameter(MM(16))

	// Diverging25G is the §5.3.1 25G prototype: SFP28 LR (markedly
	// smaller link budget than the 10G ZR parts), C40FC-C
	// adjustable-focus collimators at both ends. The tighter receive
	// chain widens the angular acceptance (RX tolerance ≈8.7 mrad,
	// better than 10G) but couples through a small focused spot, so
	// lateral walk-off bites at ≈6 mm — both §5.3.1 observations.
	Diverging25G = LinkConfig{
		Name:                     "25G diverging 16mm@RX",
		Transceiver:              SFP28LR,
		Amp:                      EDFA,
		Kind:                     Diverging,
		NominalRange:             1.75,
		LaunchRadius:             C40FC.LaunchRadius,
		RXBeamDiameter:           MM(16),
		ApertureRadius:           C40FC.ApertureRadius,
		BaseInsertionDB:          16,
		DivergenceLossDBPerMrad2: 0.80,
		AcceptBaseMrad:           5.6,
		AcceptPerMradDiv:         0.487,
		LateralAcceptance:        MM(7.5),
	}
)

func init() {
	// The calibration must keep every standard design connectable when
	// aligned; a misconfigured catalog would silently break every
	// downstream experiment, so fail fast.
	for _, c := range []LinkConfig{Collimated10G, Diverging10G, Diverging10G16mm, Diverging25G} {
		if c.MarginDB() <= 0 {
			//cyclops:panic-ok init-time catalog validation; a broken standard design must fail the process, not one experiment
			panic(fmt.Sprintf("optics: %s has non-positive margin %.1f dB", c.Name, c.MarginDB()))
		}
		if math.IsNaN(c.PeakReceivedPowerDBm()) {
			//cyclops:panic-ok init-time catalog validation; a broken standard design must fail the process, not one experiment
			panic(fmt.Sprintf("optics: %s has NaN peak power", c.Name))
		}
	}
}
