package galvo

import (
	"math"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/gma"
	"cyclops/internal/optics"
)

func newTestDevice() *Device {
	return New(gma.Nominal(), optics.GVS102, optics.USB1608G, 1)
}

func TestSetVoltagesClampAndQuantize(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(99, -99)
	v1, v2 := d.Voltages()
	if v1 != 10 || v2 != -10 {
		t.Errorf("clamp: got %v %v, want ±10", v1, v2)
	}

	d.SetVoltages(1.23456789, 0)
	v1, _ = d.Voltages()
	step := d.daq.VoltageStep()
	if r := math.Mod(v1, step); math.Abs(r) > 1e-12 && math.Abs(r-step) > 1e-12 {
		t.Errorf("voltage %v not on DAC grid (step %v)", v1, step)
	}
	if math.Abs(v1-1.23456789) > step {
		t.Errorf("quantized %v too far from command", v1)
	}
}

func TestSetVoltagesLatency(t *testing.T) {
	d := newTestDevice()
	// Small step: dominated by DAQ write + servo settle (1–2 ms, §5.2).
	lat := d.SetVoltages(0.01, 0.01)
	if lat < time.Millisecond || lat > 3*time.Millisecond {
		t.Errorf("small-step latency = %v, want 1-3 ms", lat)
	}
	// Large step takes longer than small step.
	d2 := newTestDevice()
	latBig := d2.SetVoltages(10, 10)
	if latBig <= lat {
		t.Errorf("large step %v not slower than small step %v", latBig, lat)
	}
}

func TestBeamFollowsCommands(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(0, 0)
	b0, err := d.Beam()
	if err != nil {
		t.Fatal(err)
	}
	d.SetVoltages(0, 2)
	b1, err := d.Beam()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * gma.Nominal().Theta1 * 2 // optical = 2× mechanical, 2 V
	got := b0.Dir.AngleTo(b1.Dir)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("deflection = %v rad, want ≈%v", got, want)
	}
}

func TestBeamNoiseIsSmallAndNonZero(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(0, 0)
	ref, _ := d.Truth().Beam(0, 0)
	var maxDev float64
	var anyDev bool
	for i := 0; i < 200; i++ {
		b, err := d.Beam()
		if err != nil {
			t.Fatal(err)
		}
		dev := b.Dir.AngleTo(ref.Dir)
		if dev > 0 {
			anyDev = true
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	if !anyDev {
		t.Error("servo noise absent")
	}
	// GVS102-class noise: tens of µrad at most, nowhere near a mrad.
	if maxDev > 100e-6 {
		t.Errorf("servo noise %v rad too large", maxDev)
	}
}

func TestBeamAtDoesNotChangeState(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(1, -1)
	w1, w2 := d.Voltages() // quantized versions of the command
	if _, err := d.BeamAt(3, 3); err != nil {
		t.Fatal(err)
	}
	v1, v2 := d.Voltages()
	if v1 != w1 || v2 != w2 {
		t.Errorf("BeamAt mutated state: %v %v, want %v %v", v1, v2, w1, w2)
	}
}

func TestNewUnitVariation(t *testing.T) {
	a, b := NewUnit(1), NewUnit(2)
	if a.Truth() == b.Truth() {
		t.Error("two units share identical geometry")
	}
	// Both still function.
	for _, d := range []*Device{a, b} {
		if _, err := d.Beam(); err != nil {
			t.Fatalf("unit cannot emit: %v", err)
		}
	}
}

func TestNewUnitDeterministic(t *testing.T) {
	if NewUnit(7).Truth() != NewUnit(7).Truth() {
		t.Error("same seed produced different units")
	}
}

// TestWithSlewRate: a slower mechanical slew lengthens a large step.
func TestWithSlewRate(t *testing.T) {
	slow := New(gma.Nominal(), optics.GVS102, optics.USB1608G, 1)
	slow.slewRate = 1
	fast := New(gma.Nominal(), optics.GVS102, optics.USB1608G, 1)
	fast.slewRate = 1e6
	ls := slow.SetVoltages(10, 10)
	lf := fast.SetVoltages(10, 10)
	if ls <= lf {
		t.Errorf("slow slew %v not slower than fast %v", ls, lf)
	}
}

func TestBeamTracksBoardTarget(t *testing.T) {
	// Sanity: sweeping v1 moves the board hit in X, sweeping v2 in Y —
	// the rectangular coverage cone.
	d := newTestDevice()
	board := geom.NewPlane(geom.V(0, 0, 1.5), geom.V(0, 0, -1))
	hit := func(v1, v2 float64) geom.Vec3 {
		b, err := d.BeamAt(v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := board.Intersect(b)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h00 := hit(0, 0)
	h10 := hit(1, 0)
	h01 := hit(0, 1)
	if math.Abs(h10.X-h00.X) < 0.01 {
		t.Error("v1 did not steer X")
	}
	if math.Abs(h01.Y-h00.Y) < 0.01 {
		t.Error("v2 did not steer Y")
	}
}

// A held (stuck-mirror) device acknowledges commands — latency and all —
// but the mirrors never move; releasing the hold restores normal motion.
func TestSetVoltagesHold(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(1, -1)
	h1, h2 := d.Voltages()
	d.SetHold(true)
	lat := d.SetVoltages(5, 5)
	if lat <= 0 {
		t.Error("held device reported zero latency")
	}
	v1, v2 := d.Voltages()
	if v1 != h1 || v2 != h2 {
		t.Errorf("held mirrors moved: got %v %v, want %v %v", v1, v2, h1, h2)
	}
	d.SetHold(false)
	d.SetVoltages(2, 2)
	if v1, v2 = d.Voltages(); v1 == h1 || v2 == h2 {
		t.Errorf("released mirrors did not move: got %v %v", v1, v2)
	}
}

// A saturation fault tightens the commandable range below the DAQ's; a
// zero or negative limit restores the full range.
func TestSetVoltagesRangeLimit(t *testing.T) {
	d := newTestDevice()
	step := d.daq.VoltageStep()
	d.SetRangeLimit(0.5)
	d.SetVoltages(3, -3)
	v1, v2 := d.Voltages()
	if math.Abs(v1-0.5) > step || math.Abs(v2+0.5) > step {
		t.Errorf("saturated clamp: got %v %v, want ≈±0.5", v1, v2)
	}
	// A limit wider than the DAQ's output range has no effect.
	d.SetRangeLimit(99)
	d.SetVoltages(99, -99)
	if v1, v2 = d.Voltages(); v1 != 10 || v2 != -10 {
		t.Errorf("wide limit: got %v %v, want ±10", v1, v2)
	}
	d.SetRangeLimit(0)
	d.SetVoltages(3, -3)
	if v1, v2 = d.Voltages(); math.Abs(v1-3) > step || math.Abs(v2+3) > step {
		t.Errorf("cleared limit: got %v %v, want ≈±3", v1, v2)
	}
}

// TestTracedBeamMatchesBeam holds the certificate's two halves of a beam
// read, Draw and TracedBeam, to Beam bit for bit on a twin device:
// commanded, held and range-limited mirrors, and voltages past the
// mirrors' edge.
func TestTracedBeamMatchesBeam(t *testing.T) {
	a, b := newTestDevice(), newTestDevice()
	for i := 0; i < 400; i++ {
		v1, v2 := float64(i%23)*0.5-5, float64(i%17)*0.7-5
		for _, d := range []*Device{a, b} {
			d.SetHold(i%50 >= 40)
			d.SetRangeLimit(float64(i%3) * 2)
			d.SetVoltages(v1, v2)
		}
		want, wantErr := a.Beam()
		got, _, gotErr := b.TracedBeam(b.Draw())
		if got != want || wantErr != gotErr {
			t.Fatalf("step %d: TracedBeam(Draw()) = %v, %v; Beam = %v, %v", i, got, gotErr, want, wantErr)
		}
	}
}

// TestDrawZeroAllocs pins the //cyclops:hotpath contract of the servo-noise
// draw every Plant.ReadLight takes.
func TestDrawZeroAllocs(t *testing.T) {
	d := newTestDevice()
	d.SetVoltages(1, -2)
	if n := testing.AllocsPerRun(100, func() { d.Draw() }); n != 0 {
		t.Fatalf("Draw allocates %v per call, want 0", n)
	}
}
