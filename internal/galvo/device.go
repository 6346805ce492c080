// Package galvo simulates the physical galvo-mirror hardware of the
// prototype: a ThorLabs GVS102-class two-axis scanner driven through a USB
// DAQ. The simulator owns a hidden ground-truth gma.Params describing the
// unit's true (as-built) geometry and exposes only what the real hardware
// exposes — a voltage command interface with quantization, settle latency,
// servo pointing noise, and command clamping.
//
// Every learning algorithm in Cyclops interacts with the device through
// this surface; nothing outside the package (except tests, via Truth) may
// read the hidden geometry. That discipline is what makes the reproduced
// calibration errors meaningful.
package galvo

import (
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/optics"
	"cyclops/internal/xrand"
)

// Device is one simulated two-axis galvo assembly (mirrors + servo + DAQ
// channel pair), including the fixed collimator/SFP launch optics that
// complete a GMA.
//
// A Device is not safe for concurrent use. Each belongs to one plant or
// rig, and those stay on one goroutine; parallel sweeps build their own.
type Device struct {
	truth gma.Params
	// truthC is the compiled truth model: Beam/BeamAt run on every exact
	// plant geometry read and every alignment probe, and the compilation
	// hoists the voltage-independent geometry once at construction.
	truthC gma.Compiled
	spec   optics.GalvoSpec
	daq    optics.DAQSpec
	rng    *xrand.Rand
	// sigmaV is the servo noise as an equivalent voltage perturbation on
	// each mirror: angular accuracy is optical, mechanical is half, and
	// one mechanical radian is 1/θ₁ volts.
	sigmaV float64

	v1, v2 float64 // commanded voltages after clamping+quantization

	// held freezes the mirror servos: commands are accepted (and their
	// latency accounted) but the mirrors do not move — the stuck-actuator
	// failure mode.
	held bool
	// rangeLimit, when > 0, clamps commandable |voltage| below the DAQ's
	// own output range — the saturated-driver failure mode.
	rangeLimit float64

	// slewRate is the mechanical slew rate used for large steps,
	// rad/s. The GVS102 does ~100 Hz full-field scanning, i.e. on the
	// order of a few hundred rad/s; small steps are dominated by the
	// fixed servo settle time instead.
	slewRate float64
}

// New builds a device around the given true geometry. The seed fixes the
// servo-noise stream so experiments are reproducible.
func New(truth gma.Params, spec optics.GalvoSpec, daq optics.DAQSpec, seed int64) *Device {
	d := &Device{
		truth:    truth,
		truthC:   truth.Compile(),
		spec:     spec,
		daq:      daq,
		rng:      xrand.New(seed),
		sigmaV:   spec.AngularAccuracy / 2 / truth.Theta1,
		slewRate: 300,
	}
	return d
}

// NewUnit manufactures a device with realistic unit-to-unit geometry
// variation: the truth is gma.Nominal perturbed by assembly tolerances.
func NewUnit(seed int64) *Device {
	var rng xrand.Rand
	rng.Seed(seed)
	return New(gma.Perturbed(&rng), optics.GVS102, optics.USB1608G, seed+1)
}

// SetVoltages commands the two mirror channels. The command is clamped to
// the DAQ output range and quantized to its DAC step. It returns the time
// the pointing change takes to complete: DAQ conversion plus servo settle
// plus slew for large steps. (The simulator has no hidden clock; callers —
// the pointing loop, the simulation engine — account the returned latency.)
func (d *Device) SetVoltages(v1, v2 float64) time.Duration {
	q1 := d.quantize(clamp(v1, d.effectiveRange()))
	q2 := d.quantize(clamp(v2, d.effectiveRange()))

	// Mechanical travel for the larger of the two channels.
	delta := math.Max(math.Abs(q1-d.v1), math.Abs(q2-d.v2)) * d.truth.Theta1
	lat := d.daq.WriteLatency + d.spec.StepLatency +
		time.Duration(delta/d.slewRate*float64(time.Second))

	// A held servo accepts the command (the DAQ write happens, latency
	// and all) but the mirrors never move.
	if !d.held {
		d.v1, d.v2 = q1, q2
	}
	return lat
}

// SetHold freezes or releases the mirror servos. While held, voltage
// commands are accepted but ignored; releasing the hold leaves the
// mirrors at their last pre-hold position until the next command. This is
// the stuck-actuator injection surface — the device does not know a fault
// schedule exists.
func (d *Device) SetHold(h bool) {
	d.held = h
}

// SetRangeLimit clamps commandable |voltage| to limit volts, below the
// DAQ's own output range — the saturated-driver injection surface. A
// non-positive limit restores the full range. Already-commanded voltages
// are unaffected until the next command.
func (d *Device) SetRangeLimit(limit float64) {
	if limit < 0 {
		limit = 0
	}
	d.rangeLimit = limit
}

// effectiveRange is the active |voltage| clamp: the DAQ output range,
// tightened by any injected saturation limit.
func (d *Device) effectiveRange() float64 {
	if d.rangeLimit > 0 && d.rangeLimit < d.daq.OutputRange {
		return d.rangeLimit
	}
	return d.daq.OutputRange
}

// Voltages returns the currently commanded (clamped, quantized) voltages.
func (d *Device) Voltages() (v1, v2 float64) {
	return d.v1, d.v2
}

// Beam returns the beam the assembly is emitting right now, in the
// device's K-space frame, including servo pointing noise (the GVS102's
// 10 µrad-class jitter). Each call samples fresh noise, exactly like
// reading a jittering physical beam.
func (d *Device) Beam() (geom.Ray, error) {
	n1, n2 := d.Draw()
	return d.truthC.Beam(n1, n2)
}

// Draw samples the servo noise of one beam read: the voltages the mirrors
// sit at, the commanded pair each plus a fresh normal times σ_V. It is
// exactly the draw Beam makes, so a caller that reads the beam through
// TracedBeam(Draw()) consumes the noise stream as Beam would.
//
//cyclops:hotpath the servo-noise draw of every Plant.ReadLight, certified or exact; zero-alloc contract pinned by TestDrawZeroAllocs and make alloc-check
func (d *Device) Draw() (n1, n2 float64) {
	n1 = d.v1 + d.rng.NormFloat64()*d.sigmaV
	n2 = d.v2 + d.rng.NormFloat64()*d.sigmaV
	return n1, n2
}

// TracedBeam evaluates the true beam at mirror voltages n1, n2 that Draw
// returned, with no further noise, and the trace a Lipschitz bound on
// the beam needs (gma.BeamTrace). The ray and error are Beam's for that
// draw, bit for bit.
func (d *Device) TracedBeam(n1, n2 float64) (geom.Ray, gma.BeamTrace, error) {
	return d.truthC.TracedBeam(n1, n2)
}

// BeamAt evaluates the emitted beam for explicit voltages without changing
// the device state — the hardware equivalent is briefly commanding the
// mirrors and reading where the spot lands. Noise is applied as in Beam.
func (d *Device) BeamAt(v1, v2 float64) (geom.Ray, error) {
	q1 := d.quantize(clamp(v1, d.effectiveRange())) + d.rng.NormFloat64()*d.sigmaV
	q2 := d.quantize(clamp(v2, d.effectiveRange())) + d.rng.NormFloat64()*d.sigmaV
	return d.truthC.Beam(q1, q2)
}

// Truth exposes the hidden geometry. It exists for test oracles and for
// constructing the physical link simulation; learning code must never call
// it.
func (d *Device) Truth() gma.Params { return d.truth }

// Spec returns the galvo specification.
func (d *Device) Spec() optics.GalvoSpec { return d.spec }

func (d *Device) quantize(v float64) float64 {
	step := d.daq.VoltageStep()
	return math.Round(v/step) * step
}

func clamp(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}
