// Package vrh simulates the headset's built-in tracking system (VRH-T, §3):
// an Oculus Rift S-class inside-out tracker. The simulator reproduces the
// three properties the paper's TP design has to live with:
//
//  1. Opacity — the reported position is the pose of some unknown interior
//     point of the headset, expressed in an unknown coordinate frame
//     ("VR-space"). Both the frame and the point are hidden fields here;
//     calibration code never reads them.
//  2. Noise — with the headset completely stationary the reported location
//     and orientation wander by up to ~1.79 mm and ~0.41 mrad (§5.2).
//  3. Cadence — reports arrive every 12–13 ms, with ~0.7 % of gaps
//     stretching to 14–15 ms (§5.2).
package vrh

import (
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/xrand"
)

// Report is one VRH-T tracking report: the pose Ψ of the hidden tracked
// point in the hidden VR-space frame.
type Report struct {
	Pose geom.Pose
	// At is the simulation time the report was produced.
	At time.Duration
}

// Tracker simulates VRH-T for one headset.
type Tracker struct {
	// vrSpace maps world coordinates into the VR-space frame the
	// tracker reports in. Hidden.
	vrSpace geom.Pose
	// offset maps the tracked interior point's frame into the headset
	// frame. Hidden.
	offset geom.Pose

	locSigma float64 // meters, per-axis
	angSigma float64 // radians

	// warpAmp/warpFreq shape the systematic, pose-dependent tracking
	// error: inside-out camera localization is not uniformly accurate
	// across the play space, so the reported position is biased by a
	// smooth spatial field, not just white noise. warpAmp is the peak
	// bias in meters; warpAngAmp the peak orientation bias in radians;
	// warpFreq the field's spatial frequency in rad/m.
	warpAmp    float64
	warpAngAmp float64
	warpFreq   float64

	// motionNoiseLin/motionNoiseAng scale the report noise with headset
	// speed: IMU integration error and camera motion blur make a moving
	// headset's reports markedly worse than the stationary floor. Units:
	// meters of extra 1-σ location noise per (m/s); radians per (rad/s).
	motionNoiseLin float64
	motionNoiseAng float64

	// lastTruth/lastAt let the tracker estimate its own motion.
	lastTruth geom.Pose
	lastAt    time.Duration
	haveLast  bool

	// lastReport remembers the most recent published report so Holdover
	// can replay it (the frozen-pipeline failure mode).
	lastReport Report
	haveReport bool

	rng *xrand.Rand
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithNoise overrides the stationary noise (1-σ location in meters,
// orientation in radians).
//
//cyclops:keep test lever: vrspace tests build noise-free trackers
func WithNoise(loc, ang float64) Option {
	return func(t *Tracker) { t.locSigma, t.angSigma = loc, ang }
}

// WithWarp overrides the systematic pose-dependent tracking bias: peak
// location bias (meters), peak orientation bias (radians), and spatial
// frequency (rad/m). Zeros give an ideally unbiased tracker.
//
//cyclops:keep test lever: vrspace tests build unbiased trackers
func WithWarp(loc, ang, freq float64) Option {
	return func(t *Tracker) { t.warpAmp, t.warpAngAmp, t.warpFreq = loc, ang, freq }
}

// New creates a tracker with randomized hidden frames. The VR-space origin
// lands within a couple of meters of the world origin with arbitrary yaw
// (VR runtimes place their origin wherever the guardian setup happened);
// the tracked point sits a few centimeters inside the headset with a small
// attitude offset.
func New(seed int64, opts ...Option) *Tracker {
	rng := xrand.New(seed)
	randPose := func(posScale, angScale float64) geom.Pose {
		axis := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if axis.IsZero() {
			axis = geom.V(0, 1, 0)
		}
		return geom.NewPose(
			geom.QuatFromAxisAngle(axis, rng.NormFloat64()*angScale),
			geom.V(rng.NormFloat64()*posScale, rng.NormFloat64()*posScale, rng.NormFloat64()*posScale),
		)
	}
	t := &Tracker{
		vrSpace: randPose(1.0, 0.8),
		offset:  randPose(0.04, 0.15),
		// 4σ ≈ the observed 1.79 mm / 0.41 mrad stationary bounds.
		locSigma: 0.45e-3,
		angSigma: 0.10e-3,
		// A couple of millimeters / a milliradian of smooth spatial
		// bias across the play volume — typical of inside-out
		// localization, and the reason the combined model errors of
		// Table 2 exceed the first-stage errors.
		warpAmp:    1.5e-3,
		warpAngAmp: 1.0e-3,
		warpFreq:   4.0,
		// Moving-headset degradation: ≈8 mm of extra 1-σ location
		// noise per m/s and ≈5 mrad per rad/s. At the Fig 3 envelope
		// (14 cm/s, 19 deg/s) this is ≈1 mm / 1.7 mrad — small; at the
		// speeds where the paper's link drops it dominates, which is
		// precisely why the prototype's tolerated speeds sit where
		// they do rather than at the pure drift-rate limit.
		motionNoiseLin: 9e-3,
		motionNoiseAng: 5e-3,
		rng:            rng,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// warpBias returns the systematic tracking error at a given true world
// position: a smooth sinusoidal field for location, and an orientation
// bias about a position-dependent axis.
func (t *Tracker) warpBias(p geom.Vec3) (geom.Vec3, geom.Quat) {
	if t.warpAmp == 0 && t.warpAngAmp == 0 {
		return geom.Vec3{}, geom.QuatIdentity()
	}
	k := t.warpFreq
	loc := geom.V(
		t.warpAmp*math.Sin(k*p.X+0.9*k*p.Z),
		t.warpAmp*math.Sin(k*p.Y+1.3),
		t.warpAmp*math.Sin(k*p.Z+0.7*k*p.X+2.1),
	)
	ang := t.warpAngAmp * math.Sin(k*(p.X+p.Y)+0.5)
	rot := geom.QuatFromAxisAngle(geom.V(math.Sin(k*p.Y), 1, math.Cos(k*p.X)), ang)
	return loc, rot
}

// Report produces a tracking report for a headset whose true world pose is
// truth, stamped with the given simulation time.
func (t *Tracker) Report(truth geom.Pose, at time.Duration) Report {
	ideal := t.vrSpace.Compose(truth).Compose(t.offset)
	warpT, warpR := t.warpBias(truth.Trans)
	ideal = geom.NewPose(warpR.Mul(ideal.Rot), ideal.Trans.Add(warpT))

	// Estimate current speed from the previous call to scale the noise.
	// Only consecutive reports count (≤100 ms apart) — a long gap means
	// the headset was repositioned and settled, not moving.
	locSigma, angSigma := t.locSigma, t.angSigma
	if t.haveLast && at > t.lastAt && at-t.lastAt <= 100*time.Millisecond {
		dt := (at - t.lastAt).Seconds()
		lin, ang := t.lastTruth.Delta(truth)
		locSigma += t.motionNoiseLin * lin / dt
		angSigma += t.motionNoiseAng * ang / dt
	}
	t.lastTruth, t.lastAt, t.haveLast = truth, at, true

	noiseT := geom.V(
		t.rng.NormFloat64()*locSigma,
		t.rng.NormFloat64()*locSigma,
		t.rng.NormFloat64()*locSigma,
	)
	axis := geom.V(t.rng.NormFloat64(), t.rng.NormFloat64(), t.rng.NormFloat64())
	if axis.IsZero() {
		axis = geom.V(1, 0, 0)
	}
	noiseR := geom.QuatFromAxisAngle(axis, t.rng.NormFloat64()*angSigma)

	rep := Report{
		Pose: geom.NewPose(noiseR.Mul(ideal.Rot), ideal.Trans.Add(noiseT)),
		At:   at,
	}
	t.lastReport, t.haveReport = rep, true
	return rep
}

// Holdover returns what a frozen tracking pipeline publishes: the last
// report's pose re-stamped at the given time — fresh timestamp, stale
// pose. It consumes no randomness, so a freeze window leaves the noise
// stream exactly where a healthy report sequence would resume it. Before
// any report exists it returns an identity-pose report.
func (t *Tracker) Holdover(at time.Duration) Report {
	if !t.haveReport {
		return Report{Pose: geom.PoseIdentity(), At: at}
	}
	rep := t.lastReport
	rep.At = at
	return rep
}

// NextInterval returns the gap until the next tracking report: uniform in
// 12–13 ms, except 0.7 % of the time uniform in 14–15 ms — the measured
// Rift S cadence including the <1 ms control-channel latency (§5.2).
func (t *Tracker) NextInterval() time.Duration {
	if t.rng.Float64() < 0.007 {
		return time.Duration((14 + t.rng.Float64()) * float64(time.Millisecond))
	}
	return time.Duration((12 + t.rng.Float64()) * float64(time.Millisecond))
}

// VRSpace exposes the hidden world→VR-space transform. Test/oracle use
// only: calibration code must learn its effect, never read it.
func (t *Tracker) VRSpace() geom.Pose { return t.vrSpace }

// Offset exposes the hidden tracked-point offset. Test/oracle use only.
func (t *Tracker) Offset() geom.Pose { return t.offset }

// Speeds computes the linear (m/s) and angular (rad/s) speeds implied by
// two consecutive reports — how the paper measures headset speed both for
// the Fig 3 characterization and for the 50 ms speed windows of §5.3.
func Speeds(a, b Report) (linear, angular float64) {
	dt := (b.At - a.At).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	lin, ang := a.Pose.Delta(b.Pose)
	return lin / dt, ang / dt
}
