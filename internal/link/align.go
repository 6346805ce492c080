package link

import (
	"errors"
	"fmt"
	"math"

	"cyclops/internal/optimize"
	"cyclops/internal/pointing"
)

// This file implements the §4.2 automated-exhaustive alignment search: find
// the combination of four voltages that maximizes received power, using
// only power feedback (the photodiode quad + DAQ of footnote 9). The
// search is what makes mapping-stage training samples "obviously precise"
// — and, at 1–2 minutes per sample on the real rig, what makes direct
// learning of P hopeless (footnote 3).

// AlignOptions tunes the search.
type AlignOptions struct {
	// CoarseSpan is the ± voltage window scanned around the starting
	// point in the coarse stages (default 0.3 V ≈ ±21 mrad optical).
	CoarseSpan float64
	// CoarseStep is the scan step (default 0.02 V ≈ 1.4 mrad, a fraction
	// of every design's angular tolerance so the basin cannot be
	// stepped over).
	CoarseStep float64
	// Floor is the power (dBm) below which the photodiodes see nothing
	// usable (default -60).
	Floor float64
}

func (o *AlignOptions) defaults() {
	if o.CoarseSpan <= 0 {
		o.CoarseSpan = 0.3
	}
	if o.CoarseStep <= 0 {
		o.CoarseStep = 0.02
	}
	if o.Floor == 0 {
		o.Floor = -60
	}
}

// ErrAlignFailed is returned when no detectable signal is found anywhere
// in the scan window.
var ErrAlignFailed = errors.New("link: alignment search found no signal")

// AlignSearch runs the automated alignment from a rough starting point:
// coarse 2-D scans of the TX pair then the RX pair (the photodiode-guided
// walk), followed by a Nelder–Mead polish of all four voltages on the
// received-power objective. It leaves the devices at — and returns — the
// best voltages with the power achieved there.
func (p *Plant) AlignSearch(start pointing.Voltages, opts AlignOptions) (pointing.Voltages, float64, error) {
	opts.defaults()

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
	return p.AlignSearch(start, AlignOptions{})
}
