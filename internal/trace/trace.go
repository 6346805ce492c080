// Package trace provides head-motion traces for the §5.4 evaluation: 500
// one-minute viewing sessions sampled every 10 ms, as in the public 360°
// video dataset of Lo et al. [47] the paper uses.
//
// The original dataset is not redistributable here, so the generator
// synthesizes traces whose speed statistics are calibrated to the paper's
// own characterization (Fig 3): during normal use, angular speed stays
// below ≈19 deg/s and linear speed below ≈14 cm/s, with occasional faster
// excursions (video-driven saccades, posture shifts) in the distribution
// tail. Traces are deterministic in (seed, index), and the package can
// also load externally supplied traces from CSV in the same layout as the
// public dataset (time, x, y, z, yaw, pitch, roll).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

// SampleInterval is the dataset's report period.
const SampleInterval = 10 * time.Millisecond

// Sample is one trace row: a head pose at a time offset.
type Sample struct {
	At   time.Duration
	Pose geom.Pose
}

// Trace is one viewing session.
type Trace struct {
	ID      string
	Samples []Sample
}

// Duration returns the trace length.
func (t Trace) Duration() time.Duration {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].At
}

// PoseAt returns the head pose at time at, interpolating between samples
// (slerp for orientation, lerp for position) and clamping beyond the ends.
func (t Trace) PoseAt(at time.Duration) geom.Pose {
	n := len(t.Samples)
	if n == 0 {
		return geom.PoseIdentity()
	}
	if at <= t.Samples[0].At {
		return t.Samples[0].Pose
	}
	if at >= t.Samples[n-1].At {
		return t.Samples[n-1].Pose
	}
	// Samples are uniformly spaced; index directly.
	idx := int(at / SampleInterval)
	if idx >= n-1 {
		idx = n - 2
	}
	a, b := t.Samples[idx], t.Samples[idx+1]
	span := b.At - a.At
	if span <= 0 {
		return a.Pose
	}
	frac := float64(at-a.At) / float64(span)
	return a.Pose.Interpolate(b.Pose, frac)
}

// SpeedStats summarizes a trace's speed distribution.
type SpeedStats struct {
	MaxLinear  float64 // m/s
	MaxAngular float64 // rad/s
	P95Linear  float64
	P95Angular float64
}

// Stats computes per-sample speeds across the trace.
func (t Trace) Stats() SpeedStats {
	var lin, ang []float64
	for i := 1; i < len(t.Samples); i++ {
		dt := (t.Samples[i].At - t.Samples[i-1].At).Seconds()
		if dt <= 0 {
			continue
		}
		l, a := t.Samples[i-1].Pose.Delta(t.Samples[i].Pose)
		lin = append(lin, l/dt)
		ang = append(ang, a/dt)
	}
	return SpeedStats{
		MaxLinear:  maxOf(lin),
		MaxAngular: maxOf(ang),
		P95Linear:  percentile(lin, 0.95),
		P95Angular: percentile(ang, 0.95),
	}
}

// Speeds returns the flat per-sample speed series (linear m/s, angular
// rad/s) — the raw material of the Fig 3 CDFs.
func (t Trace) Speeds() (lin, ang []float64) {
	for i := 1; i < len(t.Samples); i++ {
		dt := (t.Samples[i].At - t.Samples[i-1].At).Seconds()
		if dt <= 0 {
			continue
		}
		l, a := t.Samples[i-1].Pose.Delta(t.Samples[i].Pose)
		lin = append(lin, l/dt)
		ang = append(ang, a/dt)
	}
	return lin, ang
}

func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// WriteCSV emits the trace in the dataset layout:
// t_ms,x,y,z,yaw,pitch,roll (angles in radians).
func (t Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"t_ms", "x", "y", "z", "yaw", "pitch", "roll"}); err != nil {
		return err
	}
	for _, s := range t.Samples {
		yaw, pitch, roll := eulerFromQuat(s.Pose.Rot)
		rec := []string{
			strconv.FormatInt(int64(s.At/time.Millisecond), 10),
			fmtF(s.Pose.Trans.X), fmtF(s.Pose.Trans.Y), fmtF(s.Pose.Trans.Z),
			fmtF(yaw), fmtF(pitch), fmtF(roll),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

// eulerFromQuat extracts yaw (about +Y), pitch (about +X), roll (about +Z)
// matching geom.QuatFromEuler's composition order.
func eulerFromQuat(q geom.Quat) (yaw, pitch, roll float64) {
	m := q.Mat().M
	// R = Ry(yaw)·Rx(pitch)·Rz(roll); derive from matrix entries.
	pitch = math.Asin(clamp1(-m[1][2]))
	if math.Abs(math.Cos(pitch)) > 1e-9 {
		yaw = math.Atan2(m[0][2], m[2][2])
		roll = math.Atan2(m[1][0], m[1][1])
	} else {
		yaw = math.Atan2(-m[2][0], m[0][0])
		roll = 0
	}
	return yaw, pitch, roll
}

func clamp1(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Generate synthesizes one viewing trace. The head model combines:
//
//   - yaw: an Ornstein–Uhlenbeck angular velocity (video-driven scanning)
//     with occasional saccades toward new regions of interest;
//   - pitch/roll: smaller OU wander around level;
//   - position: slow OU sway around the seated/standing point.
//
// Parameters are calibrated so the per-sample speed distribution matches
// Fig 3: ~95 % of angular speeds below ≈19 deg/s and linear below
// ≈14 cm/s, with a tail reaching a few times that during saccades.
func Generate(seed int64, index int, length time.Duration, origin geom.Vec3) Trace {
	return GenerateInto(seed, index, length, origin, nil)
}

// genBlock is the SoA block width of the synthesis loop: pass 1 runs the
// state recurrence (RNG draws and OU updates) for a block of samples,
// recording the per-sample Euler angles and positions into stack-resident
// arrays; pass 2 builds each pose and stores it straight into the sample
// buffer (geom.NewPose of geom.QuatFromEuler per element, with no
// staging array, which cost a 64-byte store+load per sample). The
// split keeps the serially-dependent recurrence and the independent pose
// construction in separate tight loops over L1-resident data. 256 samples
// is ~12 KB of block state. The width is purely a restructuring knob: the
// per-sample operation sequence is identical at any block size
// (TestGenerateMatchesReference pins the bytes).
const genBlock = 256

// GenerateInto is Generate with a caller-owned sample buffer: when
// cap(buf) is large enough the returned trace aliases buf instead of
// allocating. The corpus engine recycles one buffer per worker through
// this (a ~400 KB make plus its clear, per trace, otherwise). The
// synthesized samples are byte-identical to Generate's
// (TestGenerateMatchesReference).
func GenerateInto(seed int64, index int, length time.Duration, origin geom.Vec3, buf []Sample) Trace {
	// xrand replicates rand.New(rand.NewSource(...)) bit for bit with
	// concrete types, so the draws inline into this loop (see the xrand
	// package doc); the synthesized corpus is unchanged byte for byte.
	rng := xrand.New(seed*1_000_003 + int64(index))
	n := int(length/SampleInterval) + 1
	dt := SampleInterval.Seconds()

	// OU processes: dv = -v/τ·dt + σ·√dt·N
	const (
		tauYawRate = 0.9  // s
		sigYawRate = 0.09 // rad/s per √s
		tauPitch   = 0.7
		sigPitch   = 0.05
		tauPos     = 1.8
		sigPos     = 0.020 // m/s per √s
		saccadeHz  = 0.25  // expected saccades per second
	)

	// Loop-invariant products, hoisted with their original left-to-right
	// association so every per-step float is bit-identical to computing
	// them inline (a*b*c ≡ (a*b)*c; the hoisted factor is exactly a*b).
	sqrtDt := math.Sqrt(dt)
	var (
		saccadeProb = saccadeHz * dt
		shiftProb   = 0.18 * dt
		yawNoise    = sigYawRate * sqrtDt
		pitchNoise  = sigPitch * sqrtDt
		rollNoise   = 0.5 * sigPitch * sqrtDt
		posNoise    = sigPos * sqrtDt
		posNoiseZ   = 0.5 * sigPos * sqrtDt
		pullBack    = dt * 0.8
		velDecay    = -dt / tauPos
	)

	var yaw, pitch, roll float64
	var yawRate, pitchRate, rollRate float64
	pos := origin
	vel := geom.Vec3{}
	var saccadeLeft int
	var saccadeRate float64
	// Posture shifts: brief whole-body translations (leaning in,
	// re-seating) that produce the linear-speed tail past ~14 cm/s
	// responsible for the §5.4 off-slots.
	var shiftLeft int
	var shiftVel geom.Vec3
	var n6 [6]float64

	samples := buf
	if cap(samples) >= n {
		samples = samples[:n]
	} else {
		samples = make([]Sample, n)
	}
	tr := Trace{ID: fmt.Sprintf("synthetic-%d", index), Samples: samples}

	// Per-block SoA state: sample i's pose inputs are the state values
	// *before* iteration i's updates, so pass 1 records them and pass 2
	// builds the poses — the same scalar operations in the same order per
	// sample, just regrouped across independent samples.
	var yawB, pitchB, rollB [genBlock]float64
	var posB [genBlock]geom.Vec3

	at := time.Duration(0)
	for base := 0; base < n; base += genBlock {
		b := n - base
		if b > genBlock {
			b = genBlock
		}
		for k := 0; k < b; k++ {
			yawB[k], pitchB[k], rollB[k] = yaw, pitch, roll
			posB[k] = pos

			// Saccade bursts: brief, faster re-orientations.
			if saccadeLeft == 0 && rng.Float64() < saccadeProb {
				saccadeLeft = 20 + rng.Intn(30) // 200–500 ms
				// Mostly 9–23 deg/s re-orientations (the Fig 3
				// distribution's upper region); one in six is a fast
				// glance at 30–60 deg/s — the tail that makes the
				// §5.4 off-slots.
				if rng.Float64() < 1.0/6 {
					saccadeRate = (rng.Float64()*0.5 + 0.5) * sign(rng)
				} else {
					saccadeRate = (rng.Float64()*0.25 + 0.15) * sign(rng)
				}
			}
			effYawRate := yawRate
			if saccadeLeft > 0 {
				saccadeLeft--
				effYawRate += saccadeRate
			}

			// Posture shifts: ~every 6 s, a 300–600 ms translation burst.
			if shiftLeft == 0 && rng.Float64() < shiftProb {
				shiftLeft = 30 + rng.Intn(30)
				dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), 0.3*rng.NormFloat64())
				if !dir.IsZero() {
					// Mostly gentle leans straddling the ~12 cm/s
					// drift limit (brief, scattered outages); a
					// quarter are decisive re-seats well past it
					// (clustered outages).
					speed := 0.07 + rng.Float64()*0.13
					if rng.Float64() < 0.25 {
						speed = 0.15 + rng.Float64()*0.20
					}
					shiftVel = dir.Unit().Scale(speed)
				}
			}
			effVel := vel
			if shiftLeft > 0 {
				shiftLeft--
				effVel = effVel.Add(shiftVel)
			}

			yaw += effYawRate * dt
			pitch += pitchRate * dt
			roll += rollRate * dt
			// Keep pitch/roll near level (people don't hold tilted heads).
			pitch -= pitch * dt / 2.5
			roll -= roll * dt / 1.5

			// The six OU noise draws are consecutive in the stream (nothing
			// draws between the rate updates and the velocity noise), so one
			// batched call replaces six — same values in the same order.
			rng.Norm6(&n6)
			yawRate += -yawRate*dt/tauYawRate + yawNoise*n6[0]
			pitchRate += -pitchRate*dt/tauPitch + pitchNoise*n6[1]
			rollRate += -rollRate*dt/tauPitch + rollNoise*n6[2]

			pos = pos.Add(effVel.Scale(dt))
			// Pull back toward the origin (seated viewer sway).
			vel = vel.Add(origin.Sub(pos).Scale(pullBack))
			vel = vel.Add(vel.Scale(velDecay)).Add(geom.V(
				posNoise*n6[3],
				posNoise*n6[4],
				posNoiseZ*n6[5],
			))
		}

		out := samples[base : base+b : base+b]
		yb, pb, rb, ps := yawB[:b], pitchB[:b], rollB[:b], posB[:b]
		for k := range out {
			out[k] = Sample{At: at, Pose: geom.NewPose(geom.QuatFromEuler(yb[k], pb[k], rb[k]), ps[k])}
			at += SampleInterval
		}
	}
	return tr
}

func sign(rng *xrand.Rand) float64 {
	if rng.Float64() < 0.5 {
		return -1
	}
	return 1
}

// DatasetTraces is the §5.4 corpus size: 50 viewers × 10 one-minute
// videos.
const DatasetTraces = 500

// Source is a streaming corpus: trace i is Generate(Seed, i, Length,
// origin), produced on demand. It satisfies sim.CorpusSource, so a corpus
// of any size runs through the sharded engine without ever being held in
// memory. Len and At are pure functions of the fields — safe for
// concurrent use and for re-generation on resumed runs.
type Source struct {
	// Seed derives every trace's RNG (with the index).
	Seed int64
	// N is the corpus size.
	N int
	// Length is each trace's duration.
	Length time.Duration
	// Origin is the head position every trace wanders around.
	Origin geom.Vec3
	// OriginAt, when non-nil, gives trace i its own origin (the arena's
	// floor grid) and Origin is ignored. Must be pure in i.
	OriginAt func(i int) geom.Vec3
}

// Len returns the corpus size.
func (s Source) Len() int { return s.N }

// At generates trace i.
func (s Source) At(i int) Trace {
	return s.AtInto(i, nil)
}

// AtInto generates trace i into a caller-owned sample buffer (see
// GenerateInto). The corpus engine uses this to recycle one buffer per
// worker instead of allocating per trace; the samples are byte-identical
// to At's.
func (s Source) AtInto(i int, buf []Sample) Trace {
	origin := s.Origin
	if s.OriginAt != nil {
		origin = s.OriginAt(i)
	}
	return GenerateInto(s.Seed, i, s.Length, origin, buf)
}
