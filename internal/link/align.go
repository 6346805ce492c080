package link

import (
	"errors"
	"fmt"
	"math"

	"cyclops/internal/obs"
	"cyclops/internal/optimize"
	"cyclops/internal/pointing"
)

// This file implements the §4.2 automated-exhaustive alignment search: find
// the combination of four voltages that maximizes received power, using
// only power feedback (the photodiode quad + DAQ of footnote 9). The
// search is what makes mapping-stage training samples "obviously precise"
// — and, at 1–2 minutes per sample on the real rig, what makes direct
// learning of P hopeless (footnote 3).

// The search's fixed scan: a ±alignSpan voltage window around the start
// (≈ ±21 mrad optical) stepped by alignStep (≈ 1.4 mrad, a fraction of
// every design's angular tolerance so the basin cannot be stepped over),
// and the power in dBm below which the photodiodes see nothing usable.
const (
	alignSpan  = 0.3
	alignStep  = 0.02
	alignFloor = -60.0
)

// ErrAlignFailed is returned when no detectable signal is found anywhere
// in the scan window.
var ErrAlignFailed = errors.New("link: alignment search found no signal")

// AlignMetrics counts the alignment search's photodiode reads. They are
// not SFP reads, so they stay out of PlantMetrics.
type AlignMetrics struct {
	Probes *obs.Counter // every read: start point, coarse scans, polish
	Exact  *obs.Counter // reads whose power was computed in full
}

// NewAlignMetrics registers the alignment instruments in reg (nil reg →
// nil metrics, recording disabled).
func NewAlignMetrics(reg *obs.Registry) *AlignMetrics {
	if reg == nil {
		return nil
	}
	return &AlignMetrics{
		Probes: reg.Counter("cyclops_calibration_align_probes_total",
			"Photodiode reads by the alignment search (start point, coarse scans, polish)."),
		Exact: reg.Counter("cyclops_calibration_align_probes_exact_total",
			"Alignment-search reads whose power was computed in full, not settled by a certified bound."),
	}
}

// alignReads tallies one search's reads for AlignMetrics.
type alignReads struct{ probes, exact int }

func (n alignReads) record(m *AlignMetrics) {
	if m == nil {
		return
	}
	m.Probes.Add(float64(n.probes))
	m.Exact.Add(float64(n.exact))
}

// alignRead is one photodiode read of the search at v. Both devices draw
// their servo noise in Misalignment on every read, so a settled read
// leaves their streams where an exact one would. With settle set, a power
// certainly at most floor returns floor without the capture integral: a
// scan keeps a probe only above its best power, so that probe could not
// change the search.
func (p *Plant) alignRead(v pointing.Voltages, settle bool, floor float64, n *alignReads) float64 {
	p.ApplyVoltages(v)
	m, err := p.Misalignment()
	n.probes++
	if err != nil {
		n.exact++
		return math.Inf(-1)
	}
	if settle && p.Config.ReceivedPowerAtMost(m, p.attenDB, floor) {
		return floor
	}
	n.exact++
	return p.Config.ReceivedPowerDBm(m) - p.attenDB
}

// AlignSearch runs the automated alignment from a rough starting point:
// coarse 2-D scans of the TX pair then the RX pair (the photodiode-guided
// walk), followed by a Nelder–Mead polish of all four voltages on the
// received-power objective. It leaves the devices at — and returns — the
// best voltages with the power achieved there. The scans settle a probe
// that cannot beat the best power so far from a bound (DESIGN §8); the
// start point, the polish and its final read are exact.
func (p *Plant) AlignSearch(start pointing.Voltages) (pointing.Voltages, float64, error) {
	var n alignReads
	defer func() { n.record(p.AlignMetrics) }()

	best := start
	bestP := p.alignRead(start, false, 0, &n)

	// Stage 1: coarse TX scan with RX fixed.
	for v1 := start.TX1 - alignSpan; v1 <= start.TX1+alignSpan; v1 += alignStep {
		for v2 := start.TX2 - alignSpan; v2 <= start.TX2+alignSpan; v2 += alignStep {
			cand := best
			cand.TX1, cand.TX2 = v1, v2
			if pw := p.alignRead(cand, true, bestP, &n); pw > bestP {
				best, bestP = cand, pw
			}
		}
	}
	// Stage 2: coarse RX scan with the best TX.
	for v1 := start.RX1 - alignSpan; v1 <= start.RX1+alignSpan; v1 += alignStep {
		for v2 := start.RX2 - alignSpan; v2 <= start.RX2+alignSpan; v2 += alignStep {
			cand := best
			cand.RX1, cand.RX2 = v1, v2
			if pw := p.alignRead(cand, true, bestP, &n); pw > bestP {
				best, bestP = cand, pw
			}
		}
	}
	if bestP < alignFloor {
		return best, bestP, fmt.Errorf("%w: best %.1f dBm", ErrAlignFailed, bestP)
	}

	// Stage 3: joint polish. Nelder–Mead on negative power; the basin is
	// smooth once there is signal.
	obj := func(x []float64) float64 {
		v := pointing.Voltages{TX1: x[0], TX2: x[1], RX1: x[2], RX2: x[3]}
		pw := p.alignRead(v, false, 0, &n)
		if math.IsInf(pw, -1) {
			return 1e6
		}
		return -pw
	}
	res := optimize.NelderMead(obj,
		[]float64{best.TX1, best.TX2, best.RX1, best.RX2},
		optimize.NMOptions{MaxIter: 400, InitStep: 0.05, TolX: 1e-5})
	polished := pointing.Voltages{TX1: res.X[0], TX2: res.X[1], RX1: res.X[2], RX2: res.X[3]}
	if pw := p.alignRead(polished, false, 0, &n); pw > bestP {
		best, bestP = polished, pw
	} else {
		p.ApplyVoltages(best) // restore the better point
	}
	return best, bestP, nil
}

// HandAim produces the rough starting point a human installer provides
// before the automated search: the true aligned voltages disturbed by a
// few tenths of a volt (±ish 10 mrad of aim error).
func (p *Plant) HandAim(rng interface{ NormFloat64() float64 }) (pointing.Voltages, error) {
	v, err := p.OracleAlignedVoltages()
	if err != nil {
		return pointing.Voltages{}, err
	}
	jitter := func() float64 { return rng.NormFloat64() * 0.08 }
	v.TX1 += jitter()
	v.TX2 += jitter()
	v.RX1 += jitter()
	v.RX2 += jitter()
	return v, nil
}

// Align runs the full physical alignment procedure (hand aim + automated
// search) and returns the aligned voltages and power.
func (p *Plant) Align(rng interface{ NormFloat64() float64 }) (pointing.Voltages, float64, error) {
	start, err := p.HandAim(rng)
	if err != nil {
		return pointing.Voltages{}, math.Inf(-1), err
	}
	return p.AlignSearch(start)
}
