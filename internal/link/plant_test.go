package link

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cyclops/internal/galvo"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/pointing"
)

func alignedPlant(t *testing.T, cfg optics.LinkConfig, seed int64) *Plant {
	t.Helper()
	p := NewPlant(cfg, seed)
	v, err := p.OracleAlignedVoltages()
	if err != nil {
		t.Fatalf("oracle alignment: %v", err)
	}
	p.ApplyVoltages(v)
	return p
}

func TestOracleAlignmentReachesPeakPower(t *testing.T) {
	p := alignedPlant(t, optics.Diverging10G16mm, 1)
	got := p.ReceivedPowerDBm()
	want := p.Config.PeakReceivedPowerDBm()
	// Within ~1.5 dB of the radiometric peak (servo noise + DAC
	// quantization keep it slightly below).
	if got < want-1.5 || got > want+0.5 {
		t.Errorf("aligned power = %.2f dBm, peak = %.2f dBm", got, want)
	}
	if !p.Connected() {
		t.Error("aligned link not connected")
	}
}

func TestRangeIsNominal(t *testing.T) {
	p := alignedPlant(t, optics.Diverging10G16mm, 2)
	m, err := p.Misalignment()
	if err != nil {
		t.Fatal(err)
	}
	if m.Range < 1.4 || m.Range > 2.1 {
		t.Errorf("TX-RX range = %.2f m, want ≈1.75", m.Range)
	}
}

func TestHeadsetMovementDegradesPower(t *testing.T) {
	p := alignedPlant(t, optics.Diverging10G16mm, 3)
	aligned := p.ReceivedPowerDBm()

	// Rotate the headset well beyond the RX angular tolerance without
	// re-pointing.
	h := p.Headset()
	p.SetHeadset(geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(1, 0, 0), 0.05).Mul(h.Rot), h.Trans))
	rotated := p.ReceivedPowerDBm()
	if rotated >= aligned-10 {
		t.Errorf("50 mrad rotation only dropped power %.1f → %.1f dBm", aligned, rotated)
	}
	if p.Connected() {
		t.Error("link survived rotation far beyond tolerance")
	}
}

func TestSmallMovementWithinTolerance(t *testing.T) {
	p := alignedPlant(t, optics.Diverging10G16mm, 4)
	h := p.Headset()
	// 2 mrad rotation: well inside the ≈5.8 mrad RX tolerance.
	p.SetHeadset(geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(1, 0, 0), 0.002).Mul(h.Rot), h.Trans))
	if !p.Connected() {
		t.Error("link lost within angular tolerance")
	}
	// 2 mm translation: inside lateral tolerance.
	p.SetHeadset(geom.NewPose(h.Rot, h.Trans.Add(geom.V(0.002, 0, 0))))
	if !p.Connected() {
		t.Error("link lost within lateral tolerance")
	}
}

func TestRepointingRestoresPower(t *testing.T) {
	p := alignedPlant(t, optics.Diverging10G16mm, 5)
	h := p.Headset()
	moved := geom.NewPose(
		geom.QuatFromAxisAngle(geom.V(0, 1, 0), 0.03).Mul(h.Rot),
		h.Trans.Add(geom.V(0.05, -0.03, 0.02)))
	p.SetHeadset(moved)
	if p.Connected() {
		t.Fatal("test premise broken: big move should disconnect")
	}
	v, err := p.OracleAlignedVoltages()
	if err != nil {
		t.Fatal(err)
	}
	p.ApplyVoltages(v)
	if !p.Connected() {
		t.Error("re-pointing did not restore the link")
	}
	if got, want := p.ReceivedPowerDBm(), p.Config.PeakReceivedPowerDBm(); got < want-1.5 {
		t.Errorf("re-pointed power %.2f dBm below peak %.2f", got, want)
	}
}

func TestMisalignmentCollimatedUsesBeamAxisAngle(t *testing.T) {
	// For a collimated link, rotating the TX changes the incidence
	// mismatch; for a diverging link it must not (§5.1 mechanism).
	for _, tc := range []struct {
		cfg        optics.LinkConfig
		wantChange bool
	}{
		{optics.Collimated10G, true},
		{optics.Diverging10G16mm, false},
	} {
		p := alignedPlant(t, tc.cfg, 6)
		m0, err := p.Misalignment()
		if err != nil {
			t.Fatal(err)
		}
		// Detune one TX mirror by 1.5 mrad optical: the optical deflection
		// is twice the mechanical 1/VoltsPerDegree degrees per volt.
		v := p.CurrentVoltages()
		v.TX1 += 0.0015 / (2 / p.TXDev.Spec().VoltsPerDegree * math.Pi / 180)
		p.ApplyVoltages(v)
		m1, err := p.Misalignment()
		if err != nil {
			t.Fatal(err)
		}
		change := math.Abs(m1.IncidenceMismatch - m0.IncidenceMismatch)
		if tc.wantChange && change < 0.5e-3 {
			t.Errorf("%s: TX rotation did not change incidence (%v)", tc.cfg.Name, change)
		}
		if !tc.wantChange && change > 0.5e-3 {
			t.Errorf("%s: TX rotation changed incidence by %v — diverging beams should be immune", tc.cfg.Name, change)
		}
		// Both kinds see the lateral offset grow.
		if m1.LateralOffset <= m0.LateralOffset {
			t.Errorf("%s: TX rotation did not grow lateral offset", tc.cfg.Name)
		}
	}
}

func TestAlignSearchFindsSignal(t *testing.T) {
	p := NewPlant(optics.Diverging10G16mm, 7)
	rng := rand.New(rand.NewSource(1))
	v, pw, err := p.Align(rng)
	if err != nil {
		t.Fatal(err)
	}
	peak := p.Config.PeakReceivedPowerDBm()
	if pw < peak-3 {
		t.Errorf("search power %.2f dBm, peak %.2f dBm", pw, peak)
	}
	// Search result close to the oracle voltages.
	ov, err := p.OracleAlignedVoltages()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]float64{
		"TX1": v.TX1 - ov.TX1, "TX2": v.TX2 - ov.TX2,
		"RX1": v.RX1 - ov.RX1, "RX2": v.RX2 - ov.RX2,
	} {
		if math.Abs(d) > 0.1 {
			t.Errorf("search %s off oracle by %.3f V", name, d)
		}
	}
}

func TestAlignSearchFailsWithNoSignal(t *testing.T) {
	p := NewPlant(optics.Diverging10G16mm, 8)
	// Start absurdly far from alignment: no light anywhere in the window.
	_, _, err := p.AlignSearch(pointing.Voltages{TX1: 9, TX2: 9, RX1: -9, RX2: -9})
	if err == nil {
		t.Error("expected alignment failure far from signal")
	}
}

func TestMonitorRelock(t *testing.T) {
	m := NewMonitor(optics.SFP10GZR)
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }

	if !m.Observe(ms(0), -20) {
		t.Fatal("healthy link reported down")
	}
	// Power drop: immediate loss.
	if m.Observe(ms(10), -40) {
		t.Fatal("link survived power below sensitivity")
	}
	// Light back: stays down until relock delay elapses.
	if m.Observe(ms(20), -20) {
		t.Fatal("relocked instantly")
	}
	if m.Observe(ms(1000), -20) {
		t.Fatal("relocked before delay")
	}
	if !m.Observe(ms(20+3000), -20) {
		t.Fatal("did not relock after delay")
	}
	// A flicker during relock restarts the clock.
	m2 := NewMonitor(optics.SFP10GZR)
	m2.Observe(ms(0), -40)
	m2.Observe(ms(10), -20)
	m2.Observe(ms(1500), -40) // flicker
	m2.Observe(ms(1510), -20)
	if m2.Observe(ms(3200), -20) {
		t.Error("flicker did not restart relock clock")
	}
	if !m2.Observe(ms(1510+3000), -20) {
		t.Error("no relock after flicker recovery")
	}
}

// HoldOver is the SFP's LOS-assert window: dark spells shorter than it
// never unlock the link; one that reaches it drops the link on the sample
// that crosses the threshold. The zero default keeps the historical
// drop-on-first-dark behavior (TestMonitorRelock pins that path).
func TestMonitorHoldOver(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	m := NewMonitor(optics.SFP10GZR)
	m.HoldOver = ms(5)

	if !m.Observe(ms(0), -20) {
		t.Fatal("healthy link reported down")
	}
	// A 3 ms dark spell (a handover slew) rides through.
	for at := 10; at < 13; at++ {
		if !m.Observe(ms(at), -40) {
			t.Fatalf("link dropped %v into a sub-holdover dark spell", ms(at-10))
		}
	}
	if !m.Observe(ms(13), -20) {
		t.Fatal("link down after light returned within holdover")
	}
	// Light resets the dark clock: a later dark spell gets the full window.
	if !m.Observe(ms(20), -40) || !m.Observe(ms(24), -40) {
		t.Fatal("dark clock not reset by intervening light")
	}
	// Crossing the window unlocks, and re-lock takes the full delay again.
	if m.Observe(ms(25), -40) {
		t.Fatal("link survived dark past the holdover window")
	}
	if m.Observe(ms(30), -20) {
		t.Fatal("relocked instantly after a holdover-exceeded drop")
	}
	if !m.Observe(ms(30+3000), -20) {
		t.Fatal("did not relock after the delay")
	}
}

func TestPlantDeterministic(t *testing.T) {
	a := alignedPlant(t, optics.Diverging10G16mm, 42)
	b := alignedPlant(t, optics.Diverging10G16mm, 42)
	va, vb := a.CurrentVoltages(), b.CurrentVoltages()
	if va != vb {
		t.Errorf("same seed, different alignment: %+v vs %+v", va, vb)
	}
}

func TestGravityFlex(t *testing.T) {
	p := NewPlant(optics.Diverging10G16mm, 11)
	h := p.Headset()
	base := p.RXWorldPose()

	// Upright headset: no sag regardless of coefficient.
	p.FlexCoeff = 0.008
	if got := p.RXWorldPose(); got.Trans.Dist(base.Trans) > 1e-12 {
		t.Error("sag applied with upright headset")
	}
	// Tilted headset: the assembly shifts by ≈ coeff·|Δg| ≈ 1.7 mm at 12°.
	tilted := geom.NewPose(geom.QuatFromAxisAngle(geom.V(1, 0, 0), 0.21).Mul(h.Rot), h.Trans)
	p.SetHeadset(tilted)
	withFlex := p.RXWorldPose()
	p.FlexCoeff = 0
	rigid := p.RXWorldPose()
	d := withFlex.Trans.Dist(rigid.Trans)
	if d < 0.5e-3 || d > 4e-3 {
		t.Errorf("sag at 12° tilt = %v m, want ≈1.7 mm", d)
	}
}

func Test25GPlantWorks(t *testing.T) {
	p := alignedPlant(t, optics.Diverging25G, 9)
	if !p.Connected() {
		t.Error("25G plant not connectable")
	}
}

func TestCollimatedPlantWorks(t *testing.T) {
	p := alignedPlant(t, optics.Collimated10G, 10)
	if !p.Connected() {
		t.Error("collimated plant not connectable")
	}
	got := p.ReceivedPowerDBm()
	if math.Abs(got-15) > 2.5 {
		t.Errorf("collimated aligned power = %.2f dBm, want ≈15", got)
	}
}

// The relock boundary is exact: a sample at lightSince + RelockDelay flips
// up on that sample, for every delay including zero (where first light
// itself is the boundary sample).
func TestMonitorRelockBoundaryExact(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	cases := []struct {
		name   string
		delay  time.Duration
		checks []struct {
			at   time.Duration
			want bool
		}
	}{
		{"zero-delay relocks on first light", 0, []struct {
			at   time.Duration
			want bool
		}{
			{ms(10), false}, // dark
			{ms(20), true},  // first light = boundary sample
		}},
		{"3s delay relocks exactly at the boundary tick", 3 * time.Second, []struct {
			at   time.Duration
			want bool
		}{
			{ms(10), false},        // dark
			{ms(20), false},        // first light, clock starts
			{ms(20 + 2999), false}, // one tick early
			{ms(20 + 3000), true},  // exactly lightSince + delay
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := optics.SFP10GZR
			spec.RelockDelay = c.delay
			m := NewMonitor(spec)
			if !m.Observe(0, spec.SensitivityDBm+10) {
				t.Fatal("did not start up")
			}
			for i, step := range c.checks {
				power := spec.SensitivityDBm + 10.0
				if i == 0 {
					power = spec.SensitivityDBm - 30 // the dark sample
				}
				if got := m.Observe(step.at, power); got != step.want {
					t.Fatalf("step %d at %v: up = %v, want %v", i, step.at, got, step.want)
				}
			}
		})
	}
}

// A gradual fade — attenuation ramping linearly through the sensitivity
// threshold, the HazeFade envelope shape — must hit the exact same
// boundary samples as a step fade: light is power >= sensitivity (the
// sample exactly at sensitivity rides through), the LOS clock starts at
// the first strictly-dark sample, and the unlock lands on the sample
// exactly HoldOver later. PR 4 fixed an off-by-one at the relock
// boundary; this pins the untested ramp path on both edges.
func TestMonitorGradualFadeBoundaries(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// Power under a 1 dB/ms attenuation ramp starting at rampAt, from a
	// -20 dBm aligned baseline against SFP10GZR's -25 dBm sensitivity:
	// the ramp crosses sensitivity exactly at rampAt+5ms.
	fade := func(at, rampAt time.Duration) float64 {
		atten := 0.0
		if at > rampAt {
			atten = float64(at-rampAt) / float64(time.Millisecond)
		}
		return -20 - atten
	}
	type sample struct {
		at   time.Duration
		dbm  float64
		want bool
	}
	cases := []struct {
		name     string
		holdOver time.Duration
		samples  []sample
	}{
		{
			// The sample at exactly sensitivity (-25 at rampAt+5) is
			// light; the first strictly-dark sample (rampAt+6) starts the
			// LOS clock; the unlock lands exactly HoldOver later.
			name:     "ramp crosses threshold mid-window, 5ms holdover",
			holdOver: ms(5),
			samples: []sample{
				{ms(100), fade(ms(100), ms(100)), true},  // ramp starts
				{ms(104), fade(ms(104), ms(100)), true},  // -24: above
				{ms(105), fade(ms(105), ms(100)), true},  // -25: at threshold = light
				{ms(106), fade(ms(106), ms(100)), true},  // -26: dark, clock starts
				{ms(110), fade(ms(110), ms(100)), true},  // 4ms dark: rides through
				{ms(111), fade(ms(111), ms(100)), false}, // 5ms dark: unlock boundary
			},
		},
		{
			// Zero holdover: the first strictly-dark sample itself drops
			// the link — one sample after the at-threshold one.
			name:     "ramp with zero holdover drops on first dark sample",
			holdOver: 0,
			samples: []sample{
				{ms(105), fade(ms(105), ms(100)), true},  // -25: still light
				{ms(106), fade(ms(106), ms(100)), false}, // -26: immediate drop
			},
		},
		{
			// A shallow fade that bottoms out 3 dB below sensitivity and
			// recovers before the window elapses never unlocks, and the
			// intervening light re-arms the full window for a later fade.
			name:     "sub-holdover fade dip rides through and resets the clock",
			holdOver: ms(5),
			samples: []sample{
				{ms(10), -26, true},  // dark, clock starts
				{ms(12), -27, true},  // 2ms dark
				{ms(14), -25, true},  // back at threshold: light, clock reset
				{ms(20), -26, true},  // new fade, new clock
				{ms(24), -28, true},  // 4ms dark: still inside the window
				{ms(25), -29, false}, // 5ms dark: unlock
			},
		},
		{
			// Recovery side: power ramping back up re-lights at the exact
			// sensitivity sample and the relock clock runs from it.
			name:     "gradual recovery relocks exactly RelockDelay after re-light",
			holdOver: ms(5),
			samples: []sample{
				{ms(0), -30, true},         // dark, clock starts
				{ms(5), -30, false},        // unlock at the boundary
				{ms(10), -26, false},       // rising but still dark
				{ms(11), -25, false},       // re-light: relock clock starts
				{ms(3010), -24, false},     // 2999ms of light: not yet
				{ms(11 + 3000), -24, true}, // exactly RelockDelay: up
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(optics.SFP10GZR)
			m.HoldOver = tc.holdOver
			for _, s := range tc.samples {
				if got := m.Observe(s.at, s.dbm); got != s.want {
					t.Fatalf("Observe(%v, %.1f dBm) = %v, want %v", s.at, s.dbm, got, s.want)
				}
			}
		})
	}
}

// TestReceivedPowerDBmZeroAllocs pins the radiometry read behind every
// tick of core.Run and every probe of the alignment search at zero
// allocations: the design-level LinkConfig.ReceivedPowerDBm, and the
// plant read (beam geometry, misalignment, CaptureFraction) with nil
// Metrics: aligned, with the headset moved off the beam, and with the
// mirrors parked at 0 V (no light at the receiver).
func TestReceivedPowerDBmZeroAllocs(t *testing.T) {
	for _, cfg := range []optics.LinkConfig{optics.Diverging10G16mm, optics.Diverging25G, optics.Collimated10G} {
		m := optics.Misalignment{Range: 1.8, LateralOffset: optics.MM(4), IncidenceMismatch: optics.Mrad(2)}
		if n := testing.AllocsPerRun(100, func() { cfg.ReceivedPowerDBm(m) }); n != 0 {
			t.Errorf("%s: LinkConfig.ReceivedPowerDBm allocates %v per call, want 0", cfg.Name, n)
		}

		p := alignedPlant(t, cfg, 3)
		if p.Metrics != nil {
			t.Fatal("plant metrics attached")
		}
		if n := testing.AllocsPerRun(100, func() { p.ReceivedPowerDBm() }); n != 0 {
			t.Errorf("%s: aligned Plant.ReceivedPowerDBm allocates %v per call, want 0", cfg.Name, n)
		}
		h := p.Headset()
		p.SetHeadset(geom.NewPose(h.Rot, h.Trans.Add(geom.V(0.01, -0.02, 0))))
		if n := testing.AllocsPerRun(100, func() { p.ReceivedPowerDBm() }); n != 0 {
			t.Errorf("%s: offset Plant.ReceivedPowerDBm allocates %v per call, want 0", cfg.Name, n)
		}
		p.ApplyVoltages(pointing.Voltages{})
		if n := testing.AllocsPerRun(100, func() { p.ReceivedPowerDBm() }); n != 0 {
			t.Errorf("%s: parked Plant.ReceivedPowerDBm allocates %v per call, want 0", cfg.Name, n)
		}
	}
}

// TestReadLightMatchesExact walks two plants built alike along a hand-held
// path and holds ReadLight on one to ReceivedPowerDBm() >= floor on the
// other, whose reads are all exact. The path turns and translates the
// headset a little each step, jumps it now and then, re-points the
// mirrors, holds and range-limits them, and changes the attenuation; the
// floor is the sensitivity or the exact power, at it and one ulp either
// side. The verdicts, each device's next servo-noise draw and the read
// count agree, ReadLight observes no power, and the light certificate
// settles a share of the reads.
func TestReadLightMatchesExact(t *testing.T) {
	for _, cfg := range []optics.LinkConfig{optics.Diverging10G16mm, optics.Diverging25G, optics.Collimated10G} {
		light, exact := alignedPlant(t, cfg, 4), alignedPlant(t, cfg, 4)
		reg := obs.NewRegistry()
		light.Metrics = NewPlantMetrics(reg)
		h := light.Headset()
		v := light.CurrentVoltages()
		reads, verdicts := 0, 0
		for i := 0; i < 1200; i++ {
			// A slow wobble: ≈0.2 mm and ≈0.2 mrad per step.
			s := float64(i)
			off := geom.V(0.003*math.Sin(s/15), -0.002*math.Cos(s/21), 0.001*math.Sin(s/9))
			rot := geom.QuatFromAxisAngle(geom.V(math.Sin(s/40), 1, 0.3), 0.005*math.Sin(s/25)).Mul(h.Rot).Normalize()
			if i%97 == 50 {
				off = off.Add(geom.V(0.05, 0, 0)) // a jump
			}
			atten := 0.0
			if i%300 >= 250 {
				atten = []float64{6, 30}[i/300%2]
			}
			for _, p := range []*Plant{light, exact} {
				p.SetHeadset(geom.NewPose(rot, h.Trans.Add(off)))
				p.SetAttenuationDB(atten)
				for _, d := range []*galvo.Device{p.TXDev, p.RXDev} {
					d.SetHold(i >= 400 && i < 500)
					if i >= 600 && i < 700 {
						d.SetRangeLimit(0.5)
					} else {
						d.SetRangeLimit(0)
					}
				}
				if i%13 == 0 {
					w := v
					w.TX1 += 0.002 * math.Sin(s)
					w.RX2 += 0.002 * math.Cos(s)
					p.ApplyVoltages(w)
				}
				if i == 1100 {
					p.ApplyVoltages(pointing.Voltages{})
				}
			}
			reads++
			if i%5 == 0 {
				// A sample tick: both exact, so the light plant re-anchors.
				if a, b := light.ReceivedPowerDBm(), exact.ReceivedPowerDBm(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s step %d: ReceivedPowerDBm %v, exact plant %v", cfg.Name, i, a, b)
				}
				continue
			}
			verdicts++
			power := exact.ReceivedPowerDBm()
			floor := []float64{cfg.Transceiver.SensitivityDBm, power, math.Nextafter(power, math.Inf(1)), math.Nextafter(power, math.Inf(-1))}[i%8/2]
			if got := light.ReadLight(floor); got != (power >= floor) {
				t.Fatalf("%s step %d: ReadLight(%v) = %v, exact power %v", cfg.Name, i, floor, got, power)
			}
		}
		for _, d := range [][2]*galvo.Device{{light.TXDev, exact.TXDev}, {light.RXDev, exact.RXDev}} {
			a, errA := d[0].Beam()
			b, errB := d[1].Beam()
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("%s: next servo draws differ: %v / %v", cfg.Name, a, b)
			}
		}
		snap := reg.Snapshot()
		if got := snap.Counters["cyclops_link_power_reads_total"]; got != float64(reads) {
			t.Errorf("%s: %v reads counted, want %d", cfg.Name, got, reads)
		}
		if got, want := snap.Histograms["cyclops_link_received_power_dbm"].Count, uint64(reads-verdicts); got != want {
			t.Errorf("%s: %v powers observed, want the %d exact reads", cfg.Name, got, want)
		}
		certified := light.CertifiedReads()
		t.Logf("%s: %d of %d verdicts certified", cfg.Name, certified, verdicts)
		if certified == 0 {
			t.Errorf("%s: the light certificate settled %d of %d verdicts", cfg.Name, certified, verdicts)
		}
	}
}

// FuzzLightDrift holds the power certificate's drift bound at or above the
// misalignment's true motion, in either direction: from an exact read of a plant (the anchor) at
// a perturbed headset pose, the fuzzer moves and turns the headset and
// shifts both devices' noisy voltages, and wherever the bound answers, the
// exact geometry at the new state, with those voltages, moved its range,
// lateral offset and incidence mismatch by no more. The committed seeds
// cover each design, a still headset, noise-sized and re-point-sized
// voltage steps, tick-sized and larger motions and a jump.
func FuzzLightDrift(f *testing.F) {
	designs := []optics.LinkConfig{optics.Diverging10G16mm, optics.Diverging25G, optics.Collimated10G}
	f.Fuzz(func(t *testing.T, design uint8, seed int64, dx, dy, dz, turn, dv float64) {
		cfg := designs[int(design)%len(designs)]
		p := alignedPlant(t, cfg, seed%50)
		rng := rand.New(rand.NewSource(seed))
		h := DefaultHeadsetPose()
		axis := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		p.SetHeadset(geom.NewPose(geom.QuatFromAxisAngle(axis, 0.02*rng.NormFloat64()).Mul(h.Rot), h.Trans.Add(geom.V(0.01*rng.NormFloat64(), 0.01*rng.NormFloat64(), 0))))
		t1, t2 := p.TXDev.Draw()
		r1, r2 := p.RXDev.Draw()
		if _, err := p.geometry(&draws{t1: t1, t2: t2, r1: r1, r2: r2, rxDrawn: true}); err != nil || !p.anchor.ok {
			return
		}
		a := p.anchor
		h0 := p.Headset()
		axis = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		p.SetHeadset(geom.NewPose(geom.QuatFromAxisAngle(axis, turn).Mul(h0.Rot), h0.Trans.Add(geom.V(dx, dy, dz))))
		step := func() float64 { return dv * rng.NormFloat64() }
		t1, t2, r1, r2 = t1+step(), t2+step(), r1+step(), r2+step()
		dOt, dDt, okT := a.tx.Moved(t1, t2)
		dOr, dDr, okR := a.rx.Moved(r1, r2)
		if !okT || !okR {
			return
		}
		d, ok := a.drift(p.Headset(), &draws{dOt: dOt, dDt: dDt, dOr: dOr, dDr: dDr})
		if !ok {
			return
		}
		m, err := p.geometry(&draws{t1: t1, t2: t2, r1: r1, r2: r2, rxDrawn: true})
		if err != nil {
			t.Fatalf("the drift bound answers but the beams miss: %v", err)
		}
		if got := math.Abs(m.Range - a.m.Range); got > d.rng {
			t.Fatalf("range moved %v, bound %v", got, d.rng)
		}
		if got := math.Abs(m.LateralOffset - a.m.LateralOffset); got > d.lat {
			t.Fatalf("lateral offset moved %v, bound %v", got, d.lat)
		}
		if got := math.Abs(m.IncidenceMismatch - a.m.IncidenceMismatch); got > d.mis {
			t.Fatalf("incidence mismatch moved %v, bound %v", got, d.mis)
		}
	})
}

// TestReadLightZeroAllocs pins the //cyclops:hotpath contract with nil
// Metrics: a read the light certificate settles (a still headset after an
// exact read), an anchor refresh (the headset jumping between two poses,
// so every read is exact and re-anchors), aligned reads the power bounds
// settle, a read at the exact power (the capture integral), and parked
// mirrors (no light).
func TestReadLightZeroAllocs(t *testing.T) {
	for _, cfg := range []optics.LinkConfig{optics.Diverging10G16mm, optics.Diverging25G, optics.Collimated10G} {
		p := alignedPlant(t, cfg, 3)
		sens := cfg.Transceiver.SensitivityDBm
		p.ReceivedPowerDBm()
		before := p.CertifiedReads()
		if n := testing.AllocsPerRun(100, func() { p.ReadLight(sens) }); n != 0 {
			t.Errorf("%s: certified ReadLight allocates %v per call, want 0", cfg.Name, n)
		}
		if got := p.CertifiedReads() - before; got < 100 {
			t.Errorf("%s: %d of the still headset's reads certified, want all", cfg.Name, got)
		}
		h := p.Headset()
		far := geom.NewPose(h.Rot, h.Trans.Add(geom.V(0.02, 0, 0)))
		jump := 0
		before = p.CertifiedReads()
		if n := testing.AllocsPerRun(100, func() {
			jump++
			if jump%2 == 0 {
				p.SetHeadset(h)
			} else {
				p.SetHeadset(far)
			}
			p.ReadLight(sens)
		}); n != 0 {
			t.Errorf("%s: re-anchoring ReadLight allocates %v per call, want 0", cfg.Name, n)
		}
		if got := p.CertifiedReads() - before; got != 0 {
			t.Errorf("%s: %d reads certified across 2 cm jumps, want 0", cfg.Name, got)
		}
		p.SetHeadset(h)
		if n := testing.AllocsPerRun(100, func() { p.ReadLight(p.ReceivedPowerDBm()) }); n != 0 {
			t.Errorf("%s: ReadLight at the exact power allocates %v per call, want 0", cfg.Name, n)
		}
		p.ApplyVoltages(pointing.Voltages{})
		if n := testing.AllocsPerRun(100, func() { p.ReadLight(sens) }); n != 0 {
			t.Errorf("%s: parked ReadLight allocates %v per call, want 0", cfg.Name, n)
		}
	}
}
