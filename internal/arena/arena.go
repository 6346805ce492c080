// Package arena scales the single-headset evaluation to a venue: N users
// under a ceiling grid of FSO transmitters, each user's beam threatened by
// the bodies and raised arms of the people around them, every served
// stream contending for a shared backhaul. It answers the deployment
// question the paper's §6 leaves open — how many headsets can one ceiling
// TX serve at a given crowd density before occlusion availability or
// backhaul share collapses.
//
// The package is a pure function of its Options: user placement, body
// sway, occlusion geometry, and the per-user slot simulation all derive
// from the seed. The venue is processed one ceiling cell at a time
// (streamed, like sim.RunCorpus): cell membership is integer arithmetic
// on the user index, so a cell's work needs only its own and adjacent
// cells' users — live heap is one batch of cell outputs plus, per Fold
// worker, one trace and O(users-per-cell · verdict runs) of reused
// scratch, independent of venue size.
package arena

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
	"cyclops/internal/parallel"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// Physical constants of the crowd model. Torso and arm are the two
// occluder spheres each neighboring user contributes (handover.Occluder
// semantics: an opaque sphere swept along a path); sway is the slow
// shuffle of a standing spectator around their home spot.
const (
	// HeadHeight is the headset optical bench height (matches
	// link.DefaultHeadsetPose's 1.0 m Trans.Z — the RX the beam must
	// reach).
	HeadHeight = 1.0
	// TorsoHeight and ArmHeight are the occluder sphere centers; both
	// sit above the headset plane, squarely in the TX→RX path of a
	// neighbor standing close enough.
	TorsoHeight = 1.45
	ArmHeight   = 1.75
	// OccluderRadius is the sphere radius for both torso and raised arm
	// (a 0.6 m-wide obstruction, the paper's hand/body blockage scale).
	OccluderRadius = 0.30
	// SwayAmplitude bounds the occluder's wander around its home spot.
	SwayAmplitude = 0.40
	// NeighborRadius is how close another user's home spot must be to
	// threaten the beam; MaxNeighbors caps the occluder set per user.
	NeighborRadius = 1.5
	MaxNeighbors   = 6
	// OcclusionStep is the geometric sampling cadence for beam/occluder
	// intersection (the 50 ms netem window — body motion is slow).
	OcclusionStep = 50 * time.Millisecond
	// BodyDepthDB is the plateau attenuation of a body occlusion — far
	// past any link budget (a torso is opaque at 1550 nm).
	BodyDepthDB = 40
	// BodyRamp is the occlusion edge time (limb speed across a 2 cm
	// beam).
	BodyRamp = 10 * time.Millisecond
)

// Options configures an arena run. The zero value of every field except
// Users and Density has a working default installed by Validate.
type Options struct {
	// Seed drives all hidden variation: placement jitter, sway phases,
	// per-user motion traces, rescue draws.
	Seed int64
	// Users is the number of headsets in the venue.
	Users int
	// Density is the crowd density in users per square meter; the venue
	// is the square of area Users/Density, its ceiling gridded at Pitch.
	Density float64
	// UsersPerTX caps how many headsets one ceiling TX serves. Users
	// beyond the cap (ranked by distance to their cell's TX) are
	// unserved — they keep occluding their neighbors but get no link.
	UsersPerTX int
	// TraceLen is the per-user session length (default one minute).
	TraceLen time.Duration
	// Pitch is the ceiling TX grid spacing in meters (default 2.0, the
	// fig16-handover wide-ring regime).
	Pitch float64
	// BackhaulGbps is the venue's shared backhaul capacity; each cell
	// owns an equal static share, and the cell's momentarily-connected
	// users split that share per slot (default 100 Gbps).
	BackhaulGbps float64
	// LinkGoodputGbps is the per-link TCP goodput ceiling (default the
	// 25G part's 23.5).
	LinkGoodputGbps float64
	// Params is the base slot-model parameterization. TXCount and
	// StandbyBlockProb are derived per cell from the ceiling geometry when
	// left zero; a zero HandoverDark takes the slot model's default.
	Params sim.ChaosParams
	// Workers bounds the cell-level fan-out (0 = parallel default).
	Workers int
	// Registry receives the merged metrics of a run (nil =
	// obs.Default()).
	Registry *obs.Registry
}

// Validate fills defaults and rejects impossible configurations: a
// non-finite or negative number, a non-positive Users or Density, and
// slot-model Params the engine would misread (sim.ChaosParams.Validate;
// a NaN tolerance would read as 100 % availability).
func (o *Options) Validate() error {
	if o.Users <= 0 {
		return errors.New("arena: Users must be positive")
	}
	// NaN compares false against every bound below, so non-finite values
	// are rejected before any default can be skipped.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Density", o.Density}, {"Pitch", o.Pitch}, {"BackhaulGbps", o.BackhaulGbps}, {"LinkGoodputGbps", o.LinkGoodputGbps}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("arena: %s %v is not finite", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("arena: %s %v is negative", f.name, f.v)
		}
	}
	if o.Density <= 0 {
		return errors.New("arena: Density must be positive")
	}
	if o.TraceLen < 0 {
		return errors.New("arena: negative TraceLen")
	}
	if o.UsersPerTX < 0 {
		return errors.New("arena: negative UsersPerTX")
	}
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("arena: Params: %w", err)
	}
	if o.UsersPerTX == 0 {
		o.UsersPerTX = 4
	}
	if o.TraceLen <= 0 {
		o.TraceLen = time.Minute
	}
	if o.Pitch <= 0 {
		o.Pitch = 2.0
	}
	if o.BackhaulGbps <= 0 {
		o.BackhaulGbps = 100
	}
	if o.LinkGoodputGbps <= 0 {
		o.LinkGoodputGbps = optics.SFP28LR.OptimalGoodputGbps
	}
	if o.Params == (sim.ChaosParams{}) {
		o.Params = sim.PaperChaos25G()
	}
	if o.Params.AvailabilityParams == (sim.AvailabilityParams{}) {
		o.Params.AvailabilityParams = sim.Paper25G()
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return nil
}

// Layout is the deterministic venue geometry: a square floor under an
// NX×NY ceiling grid. Users are assigned to cells by pure index
// arithmetic, so any cell's membership — and its neighbors' — is O(1) to
// compute without materializing the crowd.
type Layout struct {
	Seed   int64
	Users  int
	W, D   float64 // venue extent, meters (centered on the origin)
	NX, NY int     // ceiling grid
	CellW  float64
	CellD  float64
	Pitch  float64
}

// NewLayout grids the ceiling of the square venue holding users at
// density, at the given TX pitch.
func NewLayout(seed int64, users int, density, pitch float64) Layout {
	w := math.Sqrt(float64(users) / density)
	n := int(math.Round(w / pitch))
	if n < 1 {
		n = 1
	}
	return Layout{
		Seed: seed, Users: users,
		W: w, D: w,
		NX: n, NY: n,
		CellW: w / float64(n), CellD: w / float64(n),
		Pitch: pitch,
	}
}

// Cells returns the ceiling TX count.
func (l Layout) Cells() int { return l.NX * l.NY }

// CellOf maps a user index to its ceiling cell: contiguous index ranges,
// one per cell, balanced to within one user.
func (l Layout) CellOf(user int) int {
	return user * l.Cells() / l.Users
}

// CellUsers returns the half-open user index range [lo, hi) of cell c —
// the inverse of CellOf.
func (l Layout) CellUsers(c int) (lo, hi int) {
	n := l.Cells()
	return ceilDiv(c*l.Users, n), ceilDiv((c+1)*l.Users, n)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TXPos returns cell c's ceiling transmitter position.
func (l Layout) TXPos(c int) geom.Vec3 {
	cx, cy := c%l.NX, c/l.NX
	return geom.V(
		(float64(cx)+0.5)*l.CellW-l.W/2,
		(float64(cy)+0.5)*l.CellD-l.D/2,
		link.CeilingHeight,
	)
}

// Standbys returns how many orthogonally adjacent ceiling TXs can rescue
// an occluded beam in cell c (the make-before-break pool).
func (l Layout) Standbys(c int) int {
	cx, cy := c%l.NX, c/l.NX
	n := 0
	if cx > 0 {
		n++
	}
	if cx < l.NX-1 {
		n++
	}
	if cy > 0 {
		n++
	}
	if cy < l.NY-1 {
		n++
	}
	return n
}

// Home returns user i's floor-level home position: a seeded jitter inside
// its cell (80% of the cell extent, keeping homes off the cell edges).
func (l Layout) Home(i int) geom.Vec3 {
	c := l.CellOf(i)
	center := l.TXPos(c)
	return geom.V(
		center.X+(hashUnit(l.Seed, i, 1)-0.5)*0.8*l.CellW,
		center.Y+(hashUnit(l.Seed, i, 2)-0.5)*0.8*l.CellD,
		0,
	)
}

// body is one user's body as its neighbours' beams see it: a torso and a
// raised-arm sphere of radius OccluderRadius at TorsoHeight and ArmHeight,
// both swaying around the home spot with a seeded amplitude, phase and
// period. The arena's occlusion pass tests it directly; Occluder wraps it
// in handover.Occluder paths.
type body struct {
	homeX, homeY       float64
	amp, phase, period float64
}

// body returns user i's body.
func (l Layout) body(i int) body {
	home := l.Home(i)
	return body{
		homeX:  home.X,
		homeY:  home.Y,
		amp:    SwayAmplitude * (0.5 + 0.5*hashUnit(l.Seed, i, 3)),
		phase:  2 * math.Pi * hashUnit(l.Seed, i, 4),
		period: 3 + 3*hashUnit(l.Seed, i, 5), // 3–6 s shuffle
	}
}

// sway is the body's offset from home at t, shared by both spheres; its
// length is amp up to rounding.
func (b body) sway(t time.Duration) (dx, dy float64) {
	th := 2*math.Pi*t.Seconds()/b.period + b.phase
	return b.amp * math.Sin(th), b.amp * math.Cos(th)
}

// occluders is the body as two handover.Occluder path closures.
func (b body) occluders() [2]handover.Occluder {
	path := func(z float64) func(t time.Duration) geom.Vec3 {
		return func(t time.Duration) geom.Vec3 {
			dx, dy := b.sway(t)
			return geom.V(b.homeX+dx, b.homeY+dy, z)
		}
	}
	return [2]handover.Occluder{
		{Radius: OccluderRadius, Path: path(TorsoHeight)},
		{Radius: OccluderRadius, Path: path(ArmHeight)},
	}
}

// Occluder builds the two opaque spheres user i's body presents to
// neighboring beams: torso and raised arm, both swaying around the home
// spot with a seeded phase and period.
//
//cyclops:keep perfbench replays the arena's occlusion geometry through it
func (l Layout) Occluder(i int) [2]handover.Occluder {
	return l.body(i).occluders()
}

// neighbor is a candidate occluder of a user: another user's index and
// the distance between their home spots.
type neighbor struct {
	idx  int
	dist float64
}

// Neighbors returns the occluding users around user i: everyone whose
// home spot lies within NeighborRadius, nearest first (ties by index),
// capped at MaxNeighbors.
//
//cyclops:keep perfbench replays the arena's occlusion geometry through it
func (l Layout) Neighbors(i int) []int {
	ns := l.neighbors(nil, i)
	out := make([]int, len(ns))
	for k, n := range ns {
		out[k] = n.idx
	}
	return out
}

// neighbors is Neighbors appending to cands, with the distances. It scans
// every cell within ⌈NeighborRadius / min(CellW, CellD)⌉ rings of user
// i's: a home in a cell k rings away is at least (k − 1)·CellW away, so no
// cell past that reach holds a home within NeighborRadius. The default 2 m
// pitch scans one ring, the 3×3 block.
func (l Layout) neighbors(cands []neighbor, i int) []neighbor {
	home := l.Home(i)
	c := l.CellOf(i)
	cx, cy := c%l.NX, c/l.NX
	// Clamped to the grid before the conversion, so a degenerate cell
	// width cannot overflow the ring count.
	ring := max(l.NX, l.NY)
	if r := math.Ceil(NeighborRadius / math.Min(l.CellW, l.CellD)); r < float64(ring) {
		ring = int(r)
	}
	first := len(cands)
	for ny := max(cy-ring, 0); ny <= min(cy+ring, l.NY-1); ny++ {
		for nx := max(cx-ring, 0); nx <= min(cx+ring, l.NX-1); nx++ {
			lo, hi := l.CellUsers(ny*l.NX + nx)
			for j := lo; j < hi; j++ {
				if j == i {
					continue
				}
				if d := l.Home(j).Dist(home); d <= NeighborRadius {
					cands = append(cands, neighbor{j, d})
				}
			}
		}
	}
	// Selection sort by (dist, index): the candidate set is tiny and the
	// order must be reproducible.
	ns := cands[first:]
	for a := 0; a < len(ns); a++ {
		best := a
		for b := a + 1; b < len(ns); b++ {
			if ns[b].dist < ns[best].dist ||
				(ns[b].dist == ns[best].dist && ns[b].idx < ns[best].idx) {
				best = b
			}
		}
		ns[a], ns[best] = ns[best], ns[a]
	}
	return cands[:first+min(len(ns), MaxNeighbors)]
}

// Trace returns user i's head-motion trace, seeded per user and anchored
// at the home spot at headset height.
//
//cyclops:keep perfbench replays the arena's trace generation through it
func (l Layout) Trace(i int, length time.Duration) trace.Trace {
	return l.traceInto(i, length, nil)
}

// traceInto is Trace with a caller-owned sample buffer (see
// trace.GenerateInto): runCell generates every served user's trace into
// its worker's one buffer.
func (l Layout) traceInto(i int, length time.Duration, buf []trace.Sample) trace.Trace {
	home := l.Home(i)
	return trace.GenerateInto(l.Seed, i, length, geom.V(home.X, home.Y, HeadHeight), buf)
}

// hashUnit maps (seed, index, salt) to a uniform float64 in [0, 1) with a
// splitmix64 finalizer — placement and sway randomness without any rand
// state.
func hashUnit(seed int64, i, salt int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(salt)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// OcclusionWindows traces the TX→head beam against the occluder set and
// returns the blocked intervals as fault windows. The beam is sampled
// every OcclusionStep; consecutive blocked samples merge into one window.
// It is the per-sample reference of the arena's occlusion pass,
// occlusionWindows.
//
//cyclops:keep perfbench replays the arena's occlusion geometry through it
func OcclusionWindows(tx geom.Vec3, tr trace.Trace, occs []handover.Occluder) []fault.Window {
	var wins []fault.Window
	dur := tr.Duration()
	blockedFrom := time.Duration(-1)
	for t := time.Duration(0); t <= dur; t += OcclusionStep {
		seg := geom.Segment{A: tx, B: tr.PoseAt(t).Trans}
		blocked := false
		for _, oc := range occs {
			if seg.DistanceTo(oc.Path(t)) < oc.Radius {
				blocked = true
				break
			}
		}
		if blocked {
			if blockedFrom < 0 {
				blockedFrom = t
			}
		} else if blockedFrom >= 0 {
			wins = append(wins, occlusionWindow(blockedFrom, t))
			blockedFrom = -1
		}
	}
	if blockedFrom >= 0 {
		wins = append(wins, occlusionWindow(blockedFrom, dur+OcclusionStep))
	}
	return wins
}

// occlusionWindow is the fault window of a body occlusion over [from, end).
func occlusionWindow(from, end time.Duration) fault.Window {
	return fault.Window{Kind: fault.Occlusion, Start: from, End: end, DepthDB: BodyDepthDB, Ramp: BodyRamp}
}

const (
	// headStride is the trace samples per OcclusionStep. The step is a
	// whole number of SampleIntervals, so every occlusion sample falls on
	// a trace sample and the pass reads the head there: PoseAt's lerp at
	// fraction 0 can change only the sign of a zero coordinate, which no
	// distance sees.
	headStride = int(OcclusionStep / trace.SampleInterval)
	// occlusionChunk is how many occlusion samples (1 s) share one
	// rejection test per body.
	occlusionChunk = 20
	// rejectSlack absorbs rounding in the chunk bound, in meters.
	rejectSlack = 1e-9
)

// occlusionWindows is OcclusionWindows over bodies, window for window and
// bit for bit, appending to wins. samples must be non-empty and on the
// SampleInterval grid from 0, as trace.GenerateInto writes them. It
// reorders bodies.
//
// Each body's sway is computed once per sample and tested against both
// spheres. Before that, a chunk of occlusionChunk samples from h0 =
// the head at the chunk's first sample rejects a body for the whole
// chunk when, for both spheres, the segment tx→h0 passes its home column
// at z farther than amp + r + OccluderRadius + rejectSlack, where r is
// the head's largest move from h0 within the chunk. The bound is sound:
// tx→h(t) stays within r of tx→h0 (match points by their fraction along
// the segment), and a sphere centre stays within amp of its home. So
// every rejected sphere is farther than OccluderRadius from the beam at
// every sample of the chunk, and only the other bodies take the exact
// per-sample test.
//
//cyclops:hotpath the geometry of every served arena user's beam; zero-alloc contract pinned by TestOcclusionZeroAllocs and make alloc-check
func occlusionWindows(wins []fault.Window, tx geom.Vec3, samples []trace.Sample, bodies []body) []fault.Window {
	dur := samples[len(samples)-1].At
	steps := int(dur/OcclusionStep) + 1
	blockedFrom := time.Duration(-1)
	for s0 := 0; s0 < steps; s0 += occlusionChunk {
		s1 := min(s0+occlusionChunk, steps)
		h0 := samples[s0*headStride].Pose.Trans
		var r2 float64
		for s := s0 + 1; s < s1; s++ {
			r2 = max(r2, samples[s*headStride].Pose.Trans.Sub(h0).Norm2())
		}
		r := math.Sqrt(r2)
		// Partition the bodies the bound cannot reject to the front.
		seg0 := geom.Segment{A: tx, B: h0}
		near := 0
		for k, b := range bodies {
			d := min(seg0.DistanceTo(geom.V(b.homeX, b.homeY, TorsoHeight)),
				seg0.DistanceTo(geom.V(b.homeX, b.homeY, ArmHeight)))
			if d-b.amp-r <= OccluderRadius+rejectSlack {
				bodies[near], bodies[k] = bodies[k], bodies[near]
				near++
			}
		}
		for s := s0; s < s1; s++ {
			t := time.Duration(s) * OcclusionStep
			if beamBlocked(geom.Segment{A: tx, B: samples[s*headStride].Pose.Trans}, bodies[:near], t) {
				if blockedFrom < 0 {
					blockedFrom = t
				}
			} else if blockedFrom >= 0 {
				wins = append(wins, occlusionWindow(blockedFrom, t))
				blockedFrom = -1
			}
		}
	}
	if blockedFrom >= 0 {
		wins = append(wins, occlusionWindow(blockedFrom, dur+OcclusionStep))
	}
	return wins
}

// beamBlocked reports whether a torso or arm sphere of any body cuts seg
// at t.
func beamBlocked(seg geom.Segment, bodies []body, t time.Duration) bool {
	for _, b := range bodies {
		dx, dy := b.sway(t)
		x, y := b.homeX+dx, b.homeY+dy
		if seg.DistanceTo(geom.V(x, y, TorsoHeight)) < OccluderRadius ||
			seg.DistanceTo(geom.V(x, y, ArmHeight)) < OccluderRadius {
			return true
		}
	}
	return false
}

// Metrics is the arena's observability surface (one registration site,
// per the repo's metrics rule).
type Metrics struct {
	Users    *obs.Counter
	Unserved *obs.Counter
	Cells    *obs.Counter
	Goodput  *obs.Histogram
}

// GoodputBuckets spans the contended-share range up to the 25G optimum.
var GoodputBuckets = []float64{0.5, 1, 2, 4, 8, 12, 16, 20, 23.5}

// NewMetrics registers the arena instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Users: reg.Counter("cyclops_arena_users_total",
			"Headsets simulated across arena runs."),
		Unserved: reg.Counter("cyclops_arena_unserved_users_total",
			"Headsets left without a TX by the UsersPerTX cap."),
		Cells: reg.Counter("cyclops_arena_cells_total",
			"Ceiling cells processed across arena runs."),
		Goodput: reg.Histogram("cyclops_arena_user_goodput_gbps",
			"Per-served-user mean TCP goodput under backhaul contention.",
			GoodputBuckets),
	}
}

// Aggregate is the order-insensitive summary an arena run accumulates
// cell by cell.
type Aggregate struct {
	Cells    int
	Users    int
	Served   int
	Unserved int

	Slots        int
	OffSlots     int
	BlockedSlots int
	Outages      int
	Handovers    int

	// Avail99 and Avail999 count served users whose occlusion-layer
	// availability (1 − BlockedSlots/Slots, the fig16-handover
	// ChaosAvailability) meets two and three nines.
	Avail99  int
	Avail999 int
	// MinAvailability is the worst served user's occlusion availability.
	MinAvailability float64
	// GoodputSumGbps totals served users' mean goodput (under backhaul
	// contention); MinGoodputGbps is the worst of them.
	GoodputSumGbps float64
	MinGoodputGbps float64

	// Metrics folds every cell's metrics in cell order.
	Metrics obs.Snapshot
}

func (a *Aggregate) addServed(avail, goodput float64) {
	if a.Served == 0 || avail < a.MinAvailability {
		a.MinAvailability = avail
	}
	if a.Served == 0 || goodput < a.MinGoodputGbps {
		a.MinGoodputGbps = goodput
	}
	a.Served++
	a.GoodputSumGbps += goodput
	if avail >= 0.99 {
		a.Avail99++
	}
	if avail >= 0.999 {
		a.Avail999++
	}
}

// merge folds a cell's aggregate in, cells in order. It folds o's metrics
// into a's maps in place (obs.Snapshot.MergeInPlace), so a must own them,
// as a zero aggregate does.
func (a *Aggregate) merge(o Aggregate) {
	if o.Cells == 0 {
		return
	}
	if a.Served == 0 {
		a.MinAvailability = o.MinAvailability
		a.MinGoodputGbps = o.MinGoodputGbps
	} else if o.Served > 0 {
		if o.MinAvailability < a.MinAvailability {
			a.MinAvailability = o.MinAvailability
		}
		if o.MinGoodputGbps < a.MinGoodputGbps {
			a.MinGoodputGbps = o.MinGoodputGbps
		}
	}
	a.Cells += o.Cells
	a.Users += o.Users
	a.Served += o.Served
	a.Unserved += o.Unserved
	a.Slots += o.Slots
	a.OffSlots += o.OffSlots
	a.BlockedSlots += o.BlockedSlots
	a.Outages += o.Outages
	a.Handovers += o.Handovers
	a.Avail99 += o.Avail99
	a.Avail999 += o.Avail999
	a.GoodputSumGbps += o.GoodputSumGbps
	a.Metrics.MergeInPlace(o.Metrics)
}

// MeanAvailability is the venue-wide occlusion-layer availability.
func (a Aggregate) MeanAvailability() float64 {
	if a.Slots == 0 {
		return 0
	}
	return 1 - float64(a.BlockedSlots)/float64(a.Slots)
}

// MeanGoodputGbps is the served users' mean contended goodput.
func (a Aggregate) MeanGoodputGbps() float64 {
	if a.Served == 0 {
		return 0
	}
	return a.GoodputSumGbps / float64(a.Served)
}

// Checkpoint reports that a run covered the whole venue: a run always
// does, so Done is true and NextCell is the venue's cell count.
//
//cyclops:keep perfbench checks a run's Done and NextCell
type Checkpoint struct {
	NextCell int
	Done     bool
}

// Result is an arena run's outcome.
type Result struct {
	Aggregate
	Layout     Layout
	Checkpoint Checkpoint
}

// Run executes an arena simulation. Identical Options — any Workers value
// included — return the identical Result bit for bit: parallel.Fold
// merges cells in cell order regardless of completion order. The only
// error is a Validate rejection.
func Run(opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	l := NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
	res := Result{Layout: l, Checkpoint: Checkpoint{NextCell: l.Cells(), Done: true}}
	parallel.Fold(l.Cells(), opts.Workers,
		func() *cellScratch { return new(cellScratch) },
		func(sc *cellScratch, c int) Aggregate { return runCell(l, opts, c, sc) },
		res.merge)
	opts.Registry.Merge(res.Metrics)
	return res, nil
}

// cellScratch is one Fold worker's storage, reused by every cell the
// worker runs: the trace sample buffer, a served user's neighbours, their
// bodies and the occlusion windows, the served users' verdict runs, the
// contention segments, one netem stream and the metrics registry.
// runCell truncates each before use, never reads past what it wrote and
// drains the registry at the end, so a cell's Aggregate does not depend on
// the cells before it beyond the zeros of instruments they registered.
type cellScratch struct {
	buf    []trace.Sample
	nbrs   []neighbor
	bodies []body
	wins   []fault.Window
	runs   [][]verdictRun
	segs   []segment
	stream netem.Stream
	reg    *obs.Registry
}

// occlusion is user i's occlusion pass on the worker's scratch: the
// bodies of i's neighbours traced against the beam from tx to i's head.
// The returned windows live in sc.wins.
//
//cyclops:hotpath once per served arena user; zero-alloc contract on a warm scratch pinned by TestOcclusionZeroAllocs and make alloc-check
func (sc *cellScratch) occlusion(l Layout, tx geom.Vec3, i int, samples []trace.Sample) []fault.Window {
	sc.nbrs = l.neighbors(sc.nbrs[:0], i)
	sc.bodies = sc.bodies[:0]
	for _, n := range sc.nbrs {
		sc.bodies = append(sc.bodies, l.body(n.idx))
	}
	sc.wins = occlusionWindows(sc.wins[:0], tx, samples, sc.bodies)
	return sc.wins
}

// runCell simulates one ceiling cell: schedule its users against the TX,
// derive each served user's occlusion windows from the surrounding
// bodies, run the chaos slot model, then share the cell's backhaul slice
// among the momentarily-connected users.
func runCell(l Layout, opts Options, c int, sc *cellScratch) Aggregate {
	if sc.reg == nil {
		sc.reg = obs.NewRegistry()
	}
	reg := sc.reg
	m := NewMetrics(reg)
	sm := netem.NewStreamMetrics(reg)
	var agg Aggregate
	agg.Cells = 1
	m.Cells.Inc()

	lo, hi := l.CellUsers(c)
	agg.Users = hi - lo
	tx := l.TXPos(c)

	// Rank the cell's users by distance to the TX (ties by index) and
	// serve the closest UsersPerTX; the rest stay in the crowd as
	// occluders only.
	order := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		order = append(order, i)
	}
	for a := 0; a < len(order); a++ {
		best := a
		for b := a + 1; b < len(order); b++ {
			da := l.Home(order[best]).Dist(geom.V(tx.X, tx.Y, 0))
			db := l.Home(order[b]).Dist(geom.V(tx.X, tx.Y, 0))
			if db < da || (db == da && order[b] < order[best]) {
				best = b
			}
		}
		order[a], order[best] = order[best], order[a]
	}
	served := order
	if len(served) > opts.UsersPerTX {
		served = served[:opts.UsersPerTX]
	}
	for range order[len(served):] {
		m.Unserved.Inc()
		agg.Unserved++
	}
	m.Users.Add(float64(hi - lo))

	p := opts.Params
	if p.TXCount == 0 {
		p.TXCount = 1 + l.Standbys(c)
	}
	if p.TXCount > 1 && p.StandbyBlockProb == 0 {
		p.StandbyBlockProb = sim.StandbyBlockProbForSpacing(l.Pitch)
	}

	// Pass 1: slot model per served user, collecting the link verdicts
	// in runs for the contention pass. Every trace is generated into the
	// worker's one sample buffer: a user's trace is dead once its slot
	// model has run.
	for len(sc.runs) < len(served) {
		sc.runs = append(sc.runs, nil)
	}
	runs := sc.runs[:len(served)]
	results := make([]sim.ChaosTraceResult, len(served))
	for k, i := range served {
		tr := l.traceInto(i, opts.TraceLen, sc.buf)
		sc.buf = tr.Samples
		sched := fault.Schedule{Seed: opts.Seed + 7919*int64(i), Windows: sc.occlusion(l, tx, i, tr.Samples)}
		// The engine may split one verdict across runs (a fault horizon
		// ends a run without a flip); merged, a user's runs alternate.
		rs := runs[k][:0]
		r := sim.SimulateTraceChaosRuns(tr, p, &sched, reg, func(_, n int, off bool) {
			if last := len(rs) - 1; last >= 0 && rs[last].off == off {
				rs[last].n += n
				return
			}
			rs = append(rs, verdictRun{n: n, off: off})
		})
		runs[k], results[k] = rs, r
		agg.Slots += r.Slots
		agg.OffSlots += r.OffSlots
		agg.BlockedSlots += r.BlockedSlots
		agg.Outages += r.Outages
		agg.Handovers += r.Handovers
	}

	// Pass 2: backhaul contention. The cell owns an equal share of the
	// venue backhaul; each slot splits it across the users whose links
	// are up, capped by the per-link goodput ceiling. The up count moves
	// only at run edges, so every user's stream ticks one TickRun per
	// (verdict run × contention segment) piece — the same ticks, at the
	// same rates, as one Tick per slot.
	sc.segs = contention(sc.segs[:0], runs, opts.BackhaulGbps/float64(l.Cells()), opts.LinkGoodputGbps)
	segs := sc.segs
	slotLen := p.Slot
	st := &sc.stream
	for k, rs := range runs {
		st.Reset()
		st.Metrics = sm
		from, seg := 0, 0
		for _, r := range rs {
			for end := from + r.n; from < end; {
				for segs[seg].end <= from {
					seg++
				}
				n := min(end, segs[seg].end) - from
				st.TickRun(time.Duration(from)*slotLen, slotLen, n, !r.off, segs[seg].rate)
				from += n
			}
		}
		st.Finish()
		goodput := st.MeanGbps()
		avail := 1.0
		if r := results[k]; r.Slots > 0 {
			avail = 1 - float64(r.BlockedSlots)/float64(r.Slots)
		}
		m.Goodput.Observe(goodput)
		agg.addServed(avail, goodput)
	}

	reg.DrainInto(&agg.Metrics)
	return agg
}

// verdictRun is n consecutive slots of one link verdict.
type verdictRun struct {
	n   int
	off bool
}

// segment is a stretch of a cell's slots over which every served user
// ticks at one contended rate; it ends before slot end and starts where
// the previous segment ended.
type segment struct {
	end  int
	rate float64
}

// contention sweeps the users' run edges in slot order and appends the
// cell's rate segments to segs: over each, rate is the link ceiling
// linkGbps or, when lower, cellShare split across the users up there.
// Adjacent stretches of one rate merge. The segments end at the longest
// user's last slot.
func contention(segs []segment, runs [][]verdictRun, cellShare, linkGbps float64) []segment {
	// next[k] indexes user k's run covering slot at, which starts at
	// runAt[k].
	next := make([]int, len(runs))
	runAt := make([]int, len(runs))
	first := len(segs)
	for at := 0; ; {
		up, end := 0, math.MaxInt
		for k, rs := range runs {
			for next[k] < len(rs) && runAt[k]+rs[next[k]].n <= at {
				runAt[k] += rs[next[k]].n
				next[k]++
			}
			if next[k] == len(rs) {
				continue
			}
			if !rs[next[k]].off {
				up++
			}
			end = min(end, runAt[k]+rs[next[k]].n)
		}
		if end == math.MaxInt {
			return segs
		}
		rate := linkGbps
		if up > 0 {
			if share := cellShare / float64(up); share < rate {
				rate = share
			}
		}
		if last := len(segs) - 1; last >= first && segs[last].rate == rate {
			segs[last].end = end
		} else {
			segs = append(segs, segment{end: end, rate: rate})
		}
		at = end
	}
}

// String renders a one-line capacity summary (the smoke target greps it).
func (r Result) String() string {
	return fmt.Sprintf(
		"arena: %d users / %d cells, served %d (unserved %d), avail mean %.4f%% min %.4f%%, ≥99%%: %d, ≥99.9%%: %d, goodput mean %.2f Gbps min %.2f",
		r.Users, r.Cells, r.Served, r.Unserved,
		r.MeanAvailability()*100, r.MinAvailability*100,
		r.Avail99, r.Avail999,
		r.MeanGoodputGbps(), r.MinGoodputGbps)
}
