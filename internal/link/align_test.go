package link

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/optimize"
	"cyclops/internal/pointing"
)

// alignSearchReference is AlignSearch before its coarse scans settled
// probes from a bound: every probe is a full ReceivedPowerDBm read. It is
// the oracle TestAlignSearchMatchesReference holds AlignSearch to.
func alignSearchReference(p *Plant, start pointing.Voltages) (pointing.Voltages, float64, error) {
	opts := struct{ CoarseSpan, CoarseStep, Floor float64 }{0.3, 0.02, -60}

	power := func(v pointing.Voltages) float64 {
		p.ApplyVoltages(v)
		return p.ReceivedPowerDBm()
	}

	best := start
	bestP := power(start)

	// Stage 1: coarse TX scan with RX fixed.
	for v1 := start.TX1 - opts.CoarseSpan; v1 <= start.TX1+opts.CoarseSpan; v1 += opts.CoarseStep {
		for v2 := start.TX2 - opts.CoarseSpan; v2 <= start.TX2+opts.CoarseSpan; v2 += opts.CoarseStep {
			cand := best
			cand.TX1, cand.TX2 = v1, v2
			if pw := power(cand); pw > bestP {
				best, bestP = cand, pw
			}
		}
	}
	// Stage 2: coarse RX scan with the best TX.
	for v1 := start.RX1 - opts.CoarseSpan; v1 <= start.RX1+opts.CoarseSpan; v1 += opts.CoarseStep {
		for v2 := start.RX2 - opts.CoarseSpan; v2 <= start.RX2+opts.CoarseSpan; v2 += opts.CoarseStep {
			cand := best
			cand.RX1, cand.RX2 = v1, v2
			if pw := power(cand); pw > bestP {
				best, bestP = cand, pw
			}
		}
	}
	if bestP < opts.Floor {
		return best, bestP, fmt.Errorf("%w: best %.1f dBm", ErrAlignFailed, bestP)
	}

	// Stage 3: joint polish. Nelder–Mead on negative power; the basin is
	// smooth once there is signal.
	obj := func(x []float64) float64 {
		v := pointing.Voltages{TX1: x[0], TX2: x[1], RX1: x[2], RX2: x[3]}
		pw := power(v)
		if math.IsInf(pw, -1) {
			return 1e6
		}
		return -pw
	}
	res := optimize.NelderMead(obj,
		[]float64{best.TX1, best.TX2, best.RX1, best.RX2},
		optimize.NMOptions{MaxIter: 400, InitStep: 0.05, TolX: 1e-5})
	polished := pointing.Voltages{TX1: res.X[0], TX2: res.X[1], RX1: res.X[2], RX2: res.X[3]}
	if pw := power(polished); pw > bestP {
		best, bestP = polished, pw
	} else {
		p.ApplyVoltages(best) // restore the better point
	}
	return best, bestP, nil
}

// alignOutcome is everything a search leaves behind, as bits: the
// returned voltages, power and error, the commanded voltages, and the
// next noisy beam of each device (which shows where its servo-noise
// stream stands).
type alignOutcome struct {
	V, Applied [4]uint64
	Power      uint64
	Err        string
	TXBeam     [6]uint64
	RXBeam     [6]uint64
}

func voltBits(v pointing.Voltages) [4]uint64 {
	return [4]uint64{math.Float64bits(v.TX1), math.Float64bits(v.TX2), math.Float64bits(v.RX1), math.Float64bits(v.RX2)}
}

func rayBits(t *testing.T, r geom.Ray, err error) [6]uint64 {
	t.Helper()
	if err != nil {
		t.Fatalf("next beam: %v", err)
	}
	return [6]uint64{
		math.Float64bits(r.Origin.X), math.Float64bits(r.Origin.Y), math.Float64bits(r.Origin.Z),
		math.Float64bits(r.Dir.X), math.Float64bits(r.Dir.Y), math.Float64bits(r.Dir.Z),
	}
}

func outcome(t *testing.T, p *Plant, v pointing.Voltages, pw float64, err error) alignOutcome {
	t.Helper()
	o := alignOutcome{V: voltBits(v), Applied: voltBits(p.CurrentVoltages()), Power: math.Float64bits(pw)}
	if err != nil {
		o.Err = err.Error()
	}
	tx, err := p.TXDev.Beam()
	o.TXBeam = rayBits(t, tx, err)
	rx, err := p.RXDev.Beam()
	o.RXBeam = rayBits(t, rx, err)
	return o
}

// TestAlignSearchMatchesReference holds AlignSearch to the all-exact
// reference bit for bit on every shipped design: hand-aimed starts, starts
// near and beyond the scan window's edge, an attenuated path and a moved
// headset. Equal next beams show that settled probes still drew their
// servo noise.
func TestAlignSearchMatchesReference(t *testing.T) {
	designs := []optics.LinkConfig{optics.Collimated10G, optics.Diverging10G, optics.Diverging10G16mm, optics.Diverging25G}
	type setup struct {
		name    string
		attenDB float64
		pose    func(geom.Pose) geom.Pose
		start   func(p *Plant, rng *rand.Rand) pointing.Voltages
	}
	handAim := func(p *Plant, rng *rand.Rand) pointing.Voltages {
		v, err := p.HandAim(rng)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	offset := func(d float64) func(*Plant, *rand.Rand) pointing.Voltages {
		return func(p *Plant, rng *rand.Rand) pointing.Voltages {
			v, err := p.OracleAlignedVoltages()
			if err != nil {
				t.Fatal(err)
			}
			sign := func() float64 { return float64(2*rng.Intn(2) - 1) }
			v.TX1 += sign() * d
			v.TX2 += sign() * d
			v.RX1 += sign() * d
			v.RX2 += sign() * d
			return v
		}
	}
	same := func(h geom.Pose) geom.Pose { return h }
	setups := []setup{
		{"hand-aim", 0, same, handAim},
		{"window-edge", 0, same, offset(0.27)},
		{"beyond-window", 0, same, offset(0.6)},
		{"attenuated", 25, same, handAim},
		{"moved-headset", 0, func(h geom.Pose) geom.Pose {
			rot := geom.QuatFromAxisAngle(geom.V(0.3, 1, 0.1), 0.2)
			return geom.NewPose(rot.Mul(h.Rot), h.Trans.Add(geom.V(-0.25, 0.15, 0.2)))
		}, handAim},
	}
	for _, cfg := range designs {
		for _, s := range setups {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", cfg.Name, s.name, seed), func(t *testing.T) {
					var out [2]alignOutcome
					for i, search := range []func(*Plant, pointing.Voltages) (pointing.Voltages, float64, error){
						alignSearchReference, (*Plant).AlignSearch,
					} {
						p := NewPlant(cfg, seed)
						p.SetHeadset(s.pose(p.Headset()))
						p.SetAttenuationDB(s.attenDB)
						start := s.start(p, rand.New(rand.NewSource(seed)))
						v, pw, err := search(p, start)
						out[i] = outcome(t, p, v, pw, err)
					}
					if out[0] != out[1] {
						t.Fatalf("AlignSearch differs from the reference:\nreference %+v\nsearch    %+v", out[0], out[1])
					}
				})
			}
		}
	}
}

// TestAlignSearchCountsProbes checks AlignMetrics: every read is a
// probe, the polish reads are exact, and most coarse probes settle.
func TestAlignSearchCountsProbes(t *testing.T) {
	p := NewPlant(optics.Diverging10G16mm, 7)
	reg := obs.NewRegistry()
	p.AlignMetrics = NewAlignMetrics(reg)
	if _, _, err := p.Align(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	probes, exact := c["cyclops_calibration_align_probes_total"], c["cyclops_calibration_align_probes_exact_total"]
	const coarse = 2 * 31 * 31
	if probes <= coarse || exact > probes || exact < probes-coarse {
		t.Fatalf("%v probes, %v exact; want more than the %d coarse probes and every non-coarse one exact", probes, exact, coarse)
	}
	if settled := probes - exact; settled < coarse/2 {
		t.Errorf("only %v of %d coarse probes settled by the bound", settled, coarse)
	}
}
