// Package motion provides the headset motion programs of the §5.3
// evaluation rigs: the linear rail, the rotation stage, free hand-held
// "arbitrary" motion, and playback of recorded viewing traces. A Program
// is a pure function from simulation time to true headset pose, which the
// experiment loop samples at millisecond resolution.
package motion

import (
	"math"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/trace"
	"cyclops/internal/xrand"
)

// Program yields the true headset pose over time.
type Program interface {
	// Pose returns the headset pose at time t.
	Pose(t time.Duration) geom.Pose
	// Duration is the program length; Pose clamps beyond it.
	Duration() time.Duration
}

// Static holds the headset at one pose forever.
type Static struct {
	P   geom.Pose
	Len time.Duration
}

// Pose implements Program.
func (s Static) Pose(time.Duration) geom.Pose { return s.P }

// Duration implements Program.
func (s Static) Duration() time.Duration { return s.Len }

// LinearStrokes reproduces the rail procedure of §5.3: the assembly moves
// end to end in smooth strokes, momentarily resting to turn, with the
// stroke speed increasing stage by stage "until the observed throughput
// drops".
type LinearStrokes struct {
	// Base is the pose at the rail center; the rotation stays fixed.
	Base geom.Pose
	// Axis is the rail direction (unit).
	Axis geom.Vec3
	// HalfTravel is half the rail length, meters (the assembly moves
	// Base ± HalfTravel·Axis).
	HalfTravel float64
	// StartSpeed and SpeedStep define the per-stroke peak-speed ramp:
	// stroke k runs at StartSpeed + k·SpeedStep (m/s).
	StartSpeed, SpeedStep float64
	// Strokes is the number of one-way strokes.
	Strokes int
	// Dwell is the rest at each end.
	Dwell time.Duration
}

func (l LinearStrokes) strokeSpeed(k int) float64 {
	return l.StartSpeed + float64(k)*l.SpeedStep
}

// strokeDur returns stroke k's duration given its peak speed: the position
// profile is x(t) = -H·cos(πt/T), whose speed peaks at πH/T mid-stroke, so
// T = πH/peak.
func (l LinearStrokes) strokeDur(k int) time.Duration {
	peak := l.strokeSpeed(k)
	if peak <= 0 {
		return time.Second
	}
	return time.Duration(math.Pi * l.HalfTravel / peak * float64(time.Second))
}

// Duration implements Program.
func (l LinearStrokes) Duration() time.Duration {
	var d time.Duration
	for k := 0; k < l.Strokes; k++ {
		d += l.strokeDur(k) + l.Dwell
	}
	return d
}

// Pose implements Program.
func (l LinearStrokes) Pose(t time.Duration) geom.Pose {
	axis := l.Axis.Unit()
	dir := 1.0 // +1: moving from -end to +end
	for k := 0; k < l.Strokes; k++ {
		sd := l.strokeDur(k)
		if t < sd {
			// Raised-cosine position profile from -HalfTravel to
			// +HalfTravel (times dir).
			frac := float64(t) / float64(sd)
			x := -math.Cos(math.Pi*frac) * l.HalfTravel * dir
			return geom.NewPose(l.Base.Rot, l.Base.Trans.Add(axis.Scale(x)))
		}
		t -= sd
		if t < l.Dwell {
			return geom.NewPose(l.Base.Rot, l.Base.Trans.Add(axis.Scale(l.HalfTravel*dir)))
		}
		t -= l.Dwell
		dir = -dir
	}
	// Program over: rest at the final end.
	end := l.HalfTravel * dir * -1
	return geom.NewPose(l.Base.Rot, l.Base.Trans.Add(axis.Scale(end)))
}

// AngularSweeps is the rotation-stage analogue: the assembly oscillates in
// yaw about the base pose with a per-sweep peak angular speed ramp.
type AngularSweeps struct {
	Base geom.Pose
	// Axis is the stage rotation axis in the world frame (unit).
	Axis geom.Vec3
	// HalfAngle is the sweep amplitude, radians.
	HalfAngle float64
	// StartSpeed and SpeedStep ramp the per-sweep peak angular speed
	// (rad/s).
	StartSpeed, SpeedStep float64
	Sweeps                int
	Dwell                 time.Duration
}

func (a AngularSweeps) sweepSpeed(k int) float64 {
	return a.StartSpeed + float64(k)*a.SpeedStep
}

// sweepDur mirrors LinearStrokes.strokeDur: peak angular speed πA/T.
func (a AngularSweeps) sweepDur(k int) time.Duration {
	peak := a.sweepSpeed(k)
	if peak <= 0 {
		return time.Second
	}
	return time.Duration(math.Pi * a.HalfAngle / peak * float64(time.Second))
}

// Duration implements Program.
func (a AngularSweeps) Duration() time.Duration {
	var d time.Duration
	for k := 0; k < a.Sweeps; k++ {
		d += a.sweepDur(k) + a.Dwell
	}
	return d
}

// Pose implements Program.
func (a AngularSweeps) Pose(t time.Duration) geom.Pose {
	axis := a.Axis.Unit()
	dir := 1.0
	angleAt := func(frac float64) float64 {
		return -math.Cos(math.Pi*frac) * a.HalfAngle * dir
	}
	for k := 0; k < a.Sweeps; k++ {
		sd := a.sweepDur(k)
		if t < sd {
			ang := angleAt(float64(t) / float64(sd))
			return geom.NewPose(geom.QuatFromAxisAngle(axis, ang).Mul(a.Base.Rot), a.Base.Trans)
		}
		t -= sd
		if t < a.Dwell {
			return geom.NewPose(geom.QuatFromAxisAngle(axis, a.HalfAngle*dir).Mul(a.Base.Rot), a.Base.Trans)
		}
		t -= a.Dwell
		dir = -dir
	}
	return geom.NewPose(geom.QuatFromAxisAngle(axis, -a.HalfAngle*dir).Mul(a.Base.Rot), a.Base.Trans)
}

// HandHeld simulates the §5.3 user study: the assembly held in hands and
// moved freely in front of the TX with simultaneous linear and angular
// motion. Linear and angular speeds follow smoothed random processes whose
// intensity ramps over the program so a single run explores the whole
// speed range of Fig 14.
type HandHeld struct {
	Base geom.Pose
	// MaxLinear and MaxAngular bound the speed ramp targets (m/s, rad/s).
	MaxLinear, MaxAngular float64
	// Len is the program duration.
	Len time.Duration
	// Seed fixes the random motion.
	Seed int64

	once    bool
	samples []geom.Pose
	step    time.Duration
}

// Duration implements Program.
func (h *HandHeld) Duration() time.Duration { return h.Len }

// Pose implements Program. The trajectory is synthesized lazily at 5 ms
// resolution and interpolated.
func (h *HandHeld) Pose(t time.Duration) geom.Pose {
	if !h.once {
		h.synthesize()
	}
	if t < 0 {
		t = 0
	}
	idx := int(t / h.step)
	if idx >= len(h.samples)-1 {
		return h.samples[len(h.samples)-1]
	}
	frac := float64(t-time.Duration(idx)*h.step) / float64(h.step)
	return h.samples[idx].Interpolate(h.samples[idx+1], frac)
}

func (h *HandHeld) synthesize() {
	h.once = true
	h.step = 5 * time.Millisecond
	n := int(h.Len/h.step) + 2
	var rng xrand.Rand
	rng.Seed(h.Seed)
	dt := h.step.Seconds()

	pos := h.Base.Trans
	rot := h.Base.Rot
	var vel geom.Vec3
	var angVel geom.Vec3

	h.samples = make([]geom.Pose, 0, n)
	for i := 0; i < n; i++ {
		h.samples = append(h.samples, geom.NewPose(rot, pos))

		// Intensity ramps 0→1 over the program.
		ramp := float64(i) / float64(n)
		targetLin := h.MaxLinear * ramp
		targetAng := h.MaxAngular * ramp

		// OU velocity processes pulled toward the ramped magnitudes.
		velSigma := targetLin * 0.8
		angSigma := targetAng * 0.8
		vel = vel.Scale(1 - dt/0.4).Add(geom.V(
			velSigma*math.Sqrt(dt)*rng.NormFloat64(),
			velSigma*math.Sqrt(dt)*rng.NormFloat64(),
			velSigma*math.Sqrt(dt)*rng.NormFloat64(),
		))
		// Roll (about the vertical beam axis, Z) is damped: people
		// pitch and yaw their heads far more than they roll, and roll
		// barely stresses the link anyway.
		angVel = angVel.Scale(1 - dt/0.35).Add(geom.V(
			angSigma*math.Sqrt(dt)*rng.NormFloat64(),
			angSigma*math.Sqrt(dt)*rng.NormFloat64(),
			0.4*angSigma*math.Sqrt(dt)*rng.NormFloat64(),
		))

		// Keep the assembly within arm's reach of the base point.
		pull := h.Base.Trans.Sub(pos).Scale(dt * 2)
		pos = pos.Add(vel.Scale(dt)).Add(pull)
		if w := angVel.Norm(); w > 1e-12 {
			rot = geom.QuatFromAxisAngle(angVel, w*dt).Mul(rot).Normalize()
		}
		// And roughly facing up (the collimator must keep line of
		// sight to the ceiling): damp attitude back toward base.
		rot = rot.Slerp(h.Base.Rot, dt*0.8)
	}
}

// TracePlayback replays a recorded (or synthesized) viewing trace,
// re-homed so the trace's first pose lands on Base.
type TracePlayback struct {
	Base geom.Pose
	T    trace.Trace

	once syncptr
}

type syncptr struct {
	done bool
	tf   geom.Pose
}

// Duration implements Program.
func (p *TracePlayback) Duration() time.Duration { return p.T.Duration() }

// Pose implements Program.
func (p *TracePlayback) Pose(t time.Duration) geom.Pose {
	if !p.once.done {
		p.once.done = true
		if len(p.T.Samples) > 0 {
			// tf maps trace coordinates onto the rig: Base ∘ first⁻¹.
			p.once.tf = p.Base.Compose(p.T.Samples[0].Pose.Inverse())
		} else {
			p.once.tf = geom.PoseIdentity()
		}
	}
	return p.once.tf.Compose(p.T.PoseAt(t))
}
