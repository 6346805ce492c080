// Package baseline implements the comparison system the paper positions
// itself against (§1, §2.1): a 60 GHz mmWave link in the IEEE 802.11ad
// class, as used by the HTC Vive wireless adapter and the research
// prototypes of [22, 60].
//
// The mmWave model is deliberately favorable to mmWave: a 3°-beamwidth
// phased array realigns by codebook training every 100 ms and tolerates
// every head speed in this repository's motion programs without breaking
// a sweat. What it cannot do is carry tens of gigabits — the entire point
// of the paper — and it shares FSO's vulnerability to body blockage while
// lacking its beam-steering-around-it story.
package baseline

import (
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
)

// The 802.11ad link constants every mmWave consumer shares: the
// standalone Run comparison, core.Run's hybrid secondary and the sim
// slot link.
const (
	// PeakGoodputGbps is the goodput at the top MCS: 802.11ad single
	// carrier peaks at 4.6 Gbps PHY ≈ 6.0 Gbps with channel bonding
	// claims, but measured prototypes deliver less.
	PeakGoodputGbps = 4.6
	// MACRecovery is the reconnect time after an outage: mmWave needs no
	// optical re-lock, only beam retraining plus association.
	MACRecovery = 30 * time.Millisecond
	// BlockAttenDB is the injected physical-obstruction attenuation at or
	// above which the mmWave path counts as body-blocked — the same
	// depth as fault.FSOBlockAttenDB, the FSO blocking threshold. A fault schedule's haze
	// component never counts: fog is transparent at 60 GHz.
	BlockAttenDB = 10
)

const (
	// beamWidth is the array's 3 dB beamwidth, radians (3°).
	beamWidth = 3 * math.Pi / 180
	// trainInterval is the beam-refinement cadence.
	trainInterval = 100 * time.Millisecond
	// blockageLossDB is the penalty of a human-body obstruction
	// (20–30 dB at 60 GHz; enough to drop the top MCS ladder entirely).
	blockageLossDB = 25
)

// apPosition is the access point location: the Cyclops TX position.
var apPosition = geom.V(0, 0, link.CeilingHeight)

// MmWaveLink models an 802.11ad-class 60 GHz link between a ceiling access
// point and the headset. The zero value is a fresh link.
type MmWaveLink struct {
	// Metrics, when non-nil, instruments every Step (and therefore Run).
	Metrics *MmWaveMetrics

	// aim is the current beam direction (world frame, from the AP).
	aim geom.Vec3
	// nextTrain is when the next beam-refinement cycle fires.
	nextTrain time.Duration
}

// NewMmWave builds the 802.11ad baseline mounted at the Cyclops TX
// position.
func NewMmWave() *MmWaveLink { return &MmWaveLink{} }

// MmWaveMetrics instruments the mmWave baseline. Defined once here (the
// obs registry panics on conflicting re-registration): every consumer —
// the standalone Run comparison and core.Run's hybrid secondary — records
// under these names.
type MmWaveMetrics struct {
	// Goodput is the per-tick instantaneous goodput distribution, Gbps.
	Goodput *obs.Histogram
	// Retrains counts beam-refinement (codebook training) cycles.
	Retrains *obs.Counter
	// BlockageLoss is the blockage penalty applied at the latest tick, dB
	// (0 when the body is clear of the path).
	BlockageLoss *obs.Gauge
}

// MmWaveGoodputBuckets are the cyclops_mmwave_goodput_gbps histogram
// bounds, straddling the 802.11ad MCS ladder steps (0.15/0.4/0.7/1.0 ×
// the 4.6 Gbps peak).
var MmWaveGoodputBuckets = []float64{0.5, 1, 2, 3, 4, 5}

// NewMmWaveMetrics registers the mmWave instruments in reg (nil reg → nil
// metrics, recording disabled).
func NewMmWaveMetrics(reg *obs.Registry) *MmWaveMetrics {
	if reg == nil {
		return nil
	}
	return &MmWaveMetrics{
		Goodput: reg.Histogram("cyclops_mmwave_goodput_gbps",
			"Instantaneous mmWave goodput per tick (802.11ad MCS ladder).",
			MmWaveGoodputBuckets),
		Retrains: reg.Counter("cyclops_mmwave_retrain_total",
			"mmWave beam-refinement (codebook training) cycles."),
		BlockageLoss: reg.Gauge("cyclops_mmwave_blockage_loss_db",
			"Body-blockage penalty applied at the latest tick."),
	}
}

// goodputAt returns the instantaneous goodput toward a headset at hpos
// given the current beam aim and blockage state: the 802.11ad MCS ladder
// reduced to an SNR-step function of pointing error and obstruction.
func (l *MmWaveLink) goodputAt(hpos geom.Vec3, blocked bool) float64 {
	dir := hpos.Sub(apPosition)
	if dir.IsZero() {
		return 0
	}
	missAngle := dir.Unit().AngleTo(l.aim)

	// SNR loss: quadratic within the main lobe, cliff outside.
	var lossDB float64
	switch {
	case missAngle <= beamWidth/2:
		r := missAngle / (beamWidth / 2)
		lossDB = 3 * r * r
	case missAngle <= beamWidth:
		lossDB = 12
	default:
		lossDB = 40
	}
	if blocked {
		lossDB += blockageLossDB
	}

	// MCS ladder: full rate with ≤3 dB of headroom loss, stepping down
	// to zero past ~20 dB. peak is a float64 variable so the steps stay
	// rounded float64 products (4.6*0.7 is 3.2199999999999998, where the
	// constant expression would fold to 3.22).
	peak := float64(PeakGoodputGbps)
	switch {
	case lossDB <= 3:
		return peak
	case lossDB <= 6:
		return peak * 0.7
	case lossDB <= 12:
		return peak * 0.4
	case lossDB <= 20:
		return peak * 0.15
	default:
		return 0
	}
}

// Result summarizes a baseline run.
type Result struct {
	UpFraction      float64
	MeanGoodputGbps float64
	Windows         []netem.Window
}

// Reset rewinds the link state machine to the start of a run: the beam
// unaimed and the first training cycle due immediately.
func (l *MmWaveLink) Reset() {
	l.aim = geom.Vec3{}
	l.nextTrain = 0
}

// Step advances the link one tick: trains the beam when the refinement
// cycle is due, then returns the instantaneous goodput toward a headset
// at hpos under the given blockage state. A fresh link starts reset;
// call Reset before reusing one for another run.
func (l *MmWaveLink) Step(at time.Duration, hpos geom.Vec3, blocked bool) float64 {
	if at >= l.nextTrain {
		// Beam training snaps the aim back onto the headset.
		l.aim = hpos.Sub(apPosition).Unit()
		l.nextTrain = at + trainInterval
		if l.Metrics != nil {
			l.Metrics.Retrains.Inc()
		}
	}
	g := l.goodputAt(hpos, blocked)
	if l.Metrics != nil {
		l.Metrics.Goodput.Observe(g)
		var loss float64
		if blocked {
			loss = blockageLossDB
		}
		l.Metrics.BlockageLoss.Set(loss)
	}
	return g
}

// Run drives the mmWave link through a motion program. blocked, when
// non-nil, reports body blockage over time (share it with a Cyclops
// occlusion run for an apples-to-apples comparison).
func (l *MmWaveLink) Run(prog motion.Program, blocked func(t time.Duration) bool) Result {
	const tick = time.Millisecond
	dur := prog.Duration()
	stream := netem.NewStream()
	stream.RampTime = MACRecovery

	l.Reset()
	var ticks, up int
	var sum float64
	for at := time.Duration(0); at <= dur; at += tick {
		hpos := prog.Pose(at).Trans
		g := l.Step(at, hpos, blocked != nil && blocked(at))
		stream.Tick(at, tick, g > 0, g)
		if g > 0 {
			up++
		}
		sum += g
		ticks++
	}
	res := Result{Windows: stream.Finish()}
	if ticks > 0 {
		res.UpFraction = float64(up) / float64(ticks)
		res.MeanGoodputGbps = sum / float64(ticks)
	}
	return res
}
