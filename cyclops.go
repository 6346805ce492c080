// Package cyclops is a full reproduction, as a Go library, of "Cyclops: An
// FSO-based Wireless Link for VR Headsets" (SIGCOMM 2022): a free-space
// optical link between a ceiling-mounted transmitter and a VR headset,
// kept aligned by a learning-based tracking-and-pointing (TP) mechanism
// that leverages the headset's own tracking system.
//
// Because the original is a hardware prototype (galvo mirrors, SFP optics,
// an Oculus Rift S), this library ships a physics simulation of every
// hardware component with hidden ground truth, and runs the paper's actual
// algorithms — the parameterized GMA model G, the two-stage calibration,
// the G′ inverse, and the pointing function P — unmodified against it.
// See DESIGN.md for the substitution table and EXPERIMENTS.md for
// paper-vs-measured results.
//
// # Quick start
//
//	sys := cyclops.NewSystem(cyclops.Link10G, 1)
//	report, err := sys.Calibrate()           // §4.1 + §4.2 training
//	res, err := sys.Run(cyclops.RunOptions{  // drive it with motion
//	    Program: cyclops.LinearRail(0.25, 0.10, 0.05, 8),
//	})
//
// Every table and figure of the paper's evaluation has a runner in this
// package (Table1, Fig11, Table2, TPEvaluation, Fig13, Fig14, Fig15,
// Table3, Fig16, Fig3) returning a structured result that renders the same
// rows the paper reports.
package cyclops

import (
	"time"

	"cyclops/internal/core"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// System is one deployed Cyclops installation: the physical plant, the
// headset tracker, learned models, and the real-time controller.
type System = core.System

// RunOptions configures an experiment run. The loop steps at a fixed
// 1 ms tick, the paper's slot resolution.
type RunOptions = core.RunOptions

// RunResult is a run's recorded output.
type RunResult = core.RunResult

// Sample is one recorded instant of a run.
type Sample = core.Sample

// CalibrationReport summarizes the two-stage training (Table 2's data).
type CalibrationReport = core.CalibrationReport

// LinkConfig is a link design (transceiver + beam option + calibrated
// optics constants).
type LinkConfig = optics.LinkConfig

// Pose is a rigid transform / headset pose.
type Pose = geom.Pose

// Vec3 is a 3-vector (positions in meters, venue coordinates).
type Vec3 = geom.Vec3

// Program drives the true headset pose during a run.
type Program = motion.Program

// Trace is one head-motion viewing session.
type Trace = trace.Trace

// The link designs evaluated in the paper.
var (
	// Link10G is the chosen 10 Gbps design: diverging beam, 16 mm at RX
	// (§5.1 / Fig 11 optimum).
	Link10G = optics.Diverging10G16mm
	// Link10GTable1 is the 20 mm operating point Table 1 reports.
	Link10GTable1 = optics.Diverging10G
	// Link10GCollimated is §5.1 option (a), the wide collimated beam.
	Link10GCollimated = optics.Collimated10G
	// Link25G is the §5.3.1 25 Gbps prototype.
	Link25G = optics.Diverging25G
)

// NewSystem builds a system around a link design; all hidden manufacturing
// and installation variation derives from seed.
func NewSystem(cfg LinkConfig, seed int64) *System { return core.NewSystem(cfg, seed) }

// DefaultHeadsetPose is where the headset rig starts (≈1.75 m from the TX).
func DefaultHeadsetPose() Pose { return link.DefaultHeadsetPose() }

// LinearRail builds the §5.3 linear-rail program: strokes of ±halfTravel
// meters along the rail, with per-stroke peak speed ramping from
// startSpeed by speedStep (m/s) over the given number of strokes.
func LinearRail(halfTravel, startSpeed, speedStep float64, strokes int) Program {
	return motion.LinearStrokes{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfTravel: halfTravel,
		StartSpeed: startSpeed,
		SpeedStep:  speedStep,
		Strokes:    strokes,
		Dwell:      150 * time.Millisecond,
	}
}

// RotationStage builds the §5.3 rotation-stage program: yaw sweeps of
// ±halfAngle radians with per-sweep peak speed ramping from startSpeed by
// speedStep (rad/s).
// The stage axis is horizontal (perpendicular to the roughly vertical
// beam), so rotation directly stresses the incidence angle as in the
// prototype's horizontal-link rig.
func RotationStage(halfAngle, startSpeed, speedStep float64, sweeps int) Program {
	return motion.AngularSweeps{
		Base:       link.DefaultHeadsetPose(),
		Axis:       geom.V(1, 0, 0),
		HalfAngle:  halfAngle,
		StartSpeed: startSpeed,
		SpeedStep:  speedStep,
		Sweeps:     sweeps,
		Dwell:      150 * time.Millisecond,
	}
}

// HandHeld builds the §5.3 user-study program: free mixed motion ramping
// to the given linear (m/s) and angular (rad/s) intensities.
func HandHeld(maxLinear, maxAngular float64, length time.Duration, seed int64) Program {
	return &motion.HandHeld{
		Base:       link.DefaultHeadsetPose(),
		MaxLinear:  maxLinear,
		MaxAngular: maxAngular,
		Len:        length,
		Seed:       seed,
	}
}

// Playback replays a head-motion trace on the rig.
func Playback(t Trace) Program {
	return &motion.TracePlayback{Base: link.DefaultHeadsetPose(), T: t}
}

// GenerateTrace synthesizes one Fig 3-calibrated viewing trace anchored
// at the default headset position.
func GenerateTrace(seed int64, index int, length time.Duration) Trace {
	return GenerateTraceAt(seed, index, length, link.DefaultHeadsetPose().Trans)
}

// GenerateTraceAt is GenerateTrace with an explicit anchor: the trace's
// head motion wanders around origin instead of the default headset
// position — one user of a multi-headset venue, or a rig mounted
// off-center.
func GenerateTraceAt(seed int64, index int, length time.Duration, origin Vec3) Trace {
	return trace.Generate(seed, index, length, origin)
}

// TraceSource is the streaming form of the Fig 16 corpus: 500 one-minute
// traces generated on demand. Feed it to RunCorpus to simulate without
// materializing the corpus, or to sim.Materialize for a []Trace.
func TraceSource(seed int64) trace.Source {
	return trace.Source{
		Seed:   seed,
		N:      trace.DatasetTraces,
		Length: time.Minute,
		Origin: link.DefaultHeadsetPose().Trans,
	}
}

// SpeedThreshold analyzes run samples for the highest speed bucket that
// sustained the link (the Fig 13 threshold readout).
func SpeedThreshold(samples []Sample, speedOf func(Sample) float64, bucket float64, minSamples int) float64 {
	return core.SpeedThreshold(samples, speedOf, bucket, minSamples)
}

// LinSpeedOf and AngSpeedOf are the standard accessors for SpeedThreshold.
func LinSpeedOf(s Sample) float64 { return s.LinSpeed }

// AngSpeedOf returns the sample's angular speed (rad/s).
func AngSpeedOf(s Sample) float64 { return s.AngSpeed }

// TraceResult is the per-trace outcome of the §5.4 availability
// simulation.
type TraceResult = sim.TraceResult

// CorpusResult aggregates a full §5.4 dataset run (Fig 16's data).
type CorpusResult = sim.CorpusResult

// CorpusSource is a streaming corpus: traces are produced on demand
// (TraceSource, sim.TraceSlice) so corpus size never bounds memory.
type CorpusSource = sim.CorpusSource

// CorpusOptions configures RunCorpus; the zero value means the paper's
// defaults (25G constants, default worker pool, aggregate-only).
type CorpusOptions = sim.CorpusOptions

// CorpusRunResult is RunCorpus's outcome: the order-insensitive aggregate
// plus, with KeepPerTrace, the per-trace results.
type CorpusRunResult = sim.CorpusRunResult

// RunCorpus streams a corpus through the §5.4 slot model — optionally
// under fault injection (CorpusOptions.Chaos) — sharded across the worker
// pool, bit-identical at any worker count, in memory bounded by one shard
// batch. This is
// the unified entry point behind Fig16, fig16-faults, fig16-handover and
// the arena engine.
func RunCorpus(src CorpusSource, opts CorpusOptions) (CorpusRunResult, error) {
	return sim.RunCorpus(src, opts)
}

// FaultSchedule is a seeded, reproducible list of fault windows. Set
// RunOptions.Faults to a non-empty schedule to arm fault injection and the
// recovery supervisor; see DESIGN.md "Fault model & recovery".
type FaultSchedule = fault.Schedule

// FaultWindow is one fault episode inside a schedule.
type FaultWindow = fault.Window

// FaultConfig sets the per-class rates and durations PlanFaults draws
// from.
type FaultConfig = fault.Config

// RecoveryOptions tunes the link supervisor's jittered restarts
// (RestartJitterV; zero means the 0.02 V default). Its backoff (10 ms
// doubling to 160 ms, ±25 % jitter), spiral scan (after 3 failures,
// 0.04 V steps every 10 ms) and 500 ms degradation threshold are fixed
// constants in internal/core.
type RecoveryOptions = core.RecoveryOptions

// PlanFaults synthesizes a reproducible fault schedule: the same (cfg,
// seed, duration) always yields the identical windows.
func PlanFaults(cfg FaultConfig, seed int64, dur time.Duration) FaultSchedule {
	return fault.Plan(cfg, seed, dur)
}

// DefaultFaultConfig is a moderately hostile chaos mix (occlusions,
// tracker dropouts, galvo faults, solver divergence).
func DefaultFaultConfig() FaultConfig { return fault.DefaultConfig() }

// HandoverOptions arms make-before-break multi-TX handover on a run:
// standby ceiling TXs are kept pre-pointed, and when the primary path
// occludes the supervisor swaps one in within the SFP's LOS holdover —
// ~2 ms of dark instead of the 3 s re-lock. It carries the standbys and
// their fault schedules; the timing (1 ms switch debounce, 12 ms
// pre-point refresh, 5 ms LOS holdover, 500 ms failback) and the 10 dB
// blocking depth are fixed constants in internal/core. Requires
// RunOptions.Faults; see DESIGN.md "Multi-TX handover as recovery".
type HandoverOptions = core.HandoverOptions

// TXPlant is one ceiling transmitter's physical surface (the primary's is
// owned by System; standbys come from StandbyRing).
type TXPlant = link.Plant

// StandbyRing builds count standby TX plants for cfg, placed on a ceiling
// ring of the given spacing (meters) around the primary, sharing the
// receiver identity derived from rxSeed (pass the System's seed). Hand
// the result to HandoverOptions.Standbys.
func StandbyRing(cfg LinkConfig, rxSeed int64, count int, spacing float64) []*TXPlant {
	return handover.StandbysFor(cfg, rxSeed, handover.RingPositions(count, spacing))
}

// SolveGateOptions arms pose-delta solver gating on a run: assigning the
// pointer to RunOptions.SolveGate skips the P solve when the report's
// pose delta since the last accepted solve is inside the fixed tolerance
// cone (0.5 mm, 1 mrad). nil (the default) leaves the gate off —
// byte-identical to baseline.
type SolveGateOptions = core.SolveGateOptions

// HybridOptions arms the hybrid FSO + mmWave link policy on a run: a
// shadow mmWave link steps beside the optical plant, and when the FSO
// power SLO breaches for the breach window the policy fails the stream
// over, re-admitting the primary only after re-lock plus the clear
// window. It has no fields: the secondary is the paper's 802.11ad link
// (a fresh baseline.NewMmWave() per run, blocked at the 10 dB
// baseline.BlockAttenDB), and the windows are policy.BreachAfter (50 ms)
// and policy.ClearAfter (500 ms). Unlike HandoverOptions it needs
// no fault schedule — a clean run simply never leaves the primary. See
// DESIGN.md "Hybrid FSO + mmWave failover policy".
type HybridOptions = core.HybridOptions

// HybridStats is the hybrid policy's per-run outcome (RunResult.Hybrid).
type HybridStats = core.HybridStats

// DefaultHazeFaultConfig is the haze-only environmental-fade schedule
// (slow attenuation ramps, transparent to mmWave) behind cyclops-sim
// -haze and fig16-hybrid's haze-ramp arm. It composes with
// DefaultFaultConfig by copying the Haze* fields.
func DefaultHazeFaultConfig() FaultConfig { return fault.DefaultHazeConfig() }

// ChaosParams extend the §5.4 slot model with occlusion blocking and
// re-lock constants.
type ChaosParams = sim.ChaosParams

// MetricsRegistry is a deterministic, dependency-free metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text
// exposition. Hand one to System.Obs or RunOptions.Metrics to collect a
// run's observability; see DESIGN.md "Observability & determinism".
type MetricsRegistry = obs.Registry

// MetricsSnapshot is an immutable point-in-time capture of a registry —
// the form embedded in RunResult.Metrics and CorpusResult.Metrics.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry builds an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics is the process-wide registry: everything not given an
// explicit registry records here. Unlike per-run snapshots it aggregates
// concurrent work, so its exposition is stable in value but not guaranteed
// byte-identical across worker counts.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// VideoProfile describes a raw VR video stream (§2.1's bandwidth
// motivation).
type VideoProfile = netem.VideoProfile

// FrameStats summarizes a video streaming session over the link.
type FrameStats = netem.FrameStats

// Standard raw-video profiles from §2.1.
var (
	// Video8K30 is uncompressed 8K RGB at 30 fps (≈24 Gbps).
	Video8K30 = netem.Video8K30
	// Video4K90 is uncompressed 4K RGB at 90 fps (≈17.9 Gbps).
	Video4K90 = netem.Video4K90
	// Video4K30 is uncompressed 4K RGB at 30 fps (≈6 Gbps).
	Video4K30 = netem.Video4K30
)

// StreamVideo replays a run's recorded link states through a frame
// streamer: the renderer generates raw frames on the video clock and
// pushes them over the link as it was during the run. Record the run with
// a small SampleEvery (≤ a few ms) for faithful results.
func StreamVideo(res RunResult, profile VideoProfile, goodputGbps float64) FrameStats {
	fs := netem.NewFrameStreamer(profile)
	for i, s := range res.Samples {
		var tick time.Duration
		switch {
		case i+1 < len(res.Samples):
			tick = res.Samples[i+1].At - s.At
		case i > 0:
			tick = s.At - res.Samples[i-1].At
		default:
			tick = time.Millisecond
		}
		fs.Tick(s.At, tick, s.Up, goodputGbps)
	}
	return fs.Stats()
}
