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
// cells' users — live heap is O(users-per-cell · slots), independent of
// venue size, and a run checkpoints and resumes by cell.
package arena

import (
	"context"
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
	// Params is the base slot-model parameterization. TXCount,
	// StandbyBlockProb and HandoverDark are derived per cell from the
	// ceiling geometry when left zero.
	Params sim.ChaosParams
	// Workers bounds the cell-level fan-out (0 = parallel default).
	Workers int
	// Context cancels a run between cell batches.
	Context context.Context
	// Registry receives the merged metrics of a completed run (nil =
	// obs.Default()).
	Registry *obs.Registry
	// Resume continues a previous run from its returned Checkpoint.
	Resume Checkpoint
	// MaxCells bounds how many cells this call processes (0 = all
	// remaining) — the checkpointing window.
	MaxCells int
}

// Validate fills defaults and rejects impossible configurations.
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
	}
	if o.Density <= 0 {
		return errors.New("arena: Density must be positive")
	}
	if o.UsersPerTX < 0 {
		return errors.New("arena: negative UsersPerTX")
	}
	if o.MaxCells < 0 {
		return errors.New("arena: negative MaxCells")
	}
	if o.Resume.NextCell < 0 {
		return errors.New("arena: negative Resume.NextCell")
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
	if o.Context == nil {
		o.Context = context.Background()
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

// Occluder builds the two opaque spheres user i's body presents to
// neighboring beams: torso and raised arm, both swaying around the home
// spot with a seeded phase and period.
func (l Layout) Occluder(i int) [2]handover.Occluder {
	home := l.Home(i)
	amp := SwayAmplitude * (0.5 + 0.5*hashUnit(l.Seed, i, 3))
	phase := 2 * math.Pi * hashUnit(l.Seed, i, 4)
	period := 3 + 3*hashUnit(l.Seed, i, 5) // 3–6 s shuffle
	sway := func(t time.Duration) (float64, float64) {
		th := 2*math.Pi*t.Seconds()/period + phase
		return amp * math.Sin(th), amp * math.Cos(th)
	}
	path := func(z float64) func(t time.Duration) geom.Vec3 {
		return func(t time.Duration) geom.Vec3 {
			dx, dy := sway(t)
			return geom.V(home.X+dx, home.Y+dy, z)
		}
	}
	return [2]handover.Occluder{
		{Radius: OccluderRadius, Path: path(TorsoHeight)},
		{Radius: OccluderRadius, Path: path(ArmHeight)},
	}
}

// Neighbors returns the occluding users around user i: everyone whose
// home spot lies within NeighborRadius, nearest first (ties by index),
// capped at MaxNeighbors. Only the 3×3 cell neighborhood is scanned —
// NeighborRadius never exceeds a cell diagonal at the supported pitches.
func (l Layout) Neighbors(i int) []int {
	home := l.Home(i)
	c := l.CellOf(i)
	cx, cy := c%l.NX, c/l.NX
	type cand struct {
		idx  int
		dist float64
	}
	var cands []cand
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || nx >= l.NX || ny < 0 || ny >= l.NY {
				continue
			}
			lo, hi := l.CellUsers(ny*l.NX + nx)
			for j := lo; j < hi; j++ {
				if j == i {
					continue
				}
				if d := l.Home(j).Dist(home); d <= NeighborRadius {
					cands = append(cands, cand{j, d})
				}
			}
		}
	}
	// Selection sort by (dist, index): the candidate set is tiny and the
	// order must be reproducible.
	for a := 0; a < len(cands); a++ {
		best := a
		for b := a + 1; b < len(cands); b++ {
			if cands[b].dist < cands[best].dist ||
				(cands[b].dist == cands[best].dist && cands[b].idx < cands[best].idx) {
				best = b
			}
		}
		cands[a], cands[best] = cands[best], cands[a]
	}
	if len(cands) > MaxNeighbors {
		cands = cands[:MaxNeighbors]
	}
	out := make([]int, len(cands))
	for k, c := range cands {
		out[k] = c.idx
	}
	return out
}

// Trace returns user i's head-motion trace, seeded per user and anchored
// at the home spot at headset height.
func (l Layout) Trace(i int, length time.Duration) trace.Trace {
	home := l.Home(i)
	return trace.Generate(l.Seed, i, length, geom.V(home.X, home.Y, HeadHeight))
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
func OcclusionWindows(tx geom.Vec3, tr trace.Trace, occs []handover.Occluder) []fault.Window {
	var wins []fault.Window
	dur := tr.Duration()
	blockedFrom := time.Duration(-1)
	flush := func(end time.Duration) {
		if blockedFrom >= 0 {
			wins = append(wins, fault.Window{
				Kind:    fault.Occlusion,
				Start:   blockedFrom,
				End:     end,
				DepthDB: BodyDepthDB,
				Ramp:    BodyRamp,
			})
			blockedFrom = -1
		}
	}
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
		} else {
			flush(t)
		}
	}
	flush(dur + OcclusionStep)
	return wins
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

	// Metrics folds every cell's registry snapshot in cell order.
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
	a.Metrics = a.Metrics.Merge(o.Metrics)
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

// Checkpoint is a resumable position in an arena run.
type Checkpoint struct {
	// NextCell is the first unprocessed ceiling cell.
	NextCell int
	// Done marks a completed venue.
	Done bool
	// Agg carries the aggregate over everything processed so far.
	Agg Aggregate
}

// Result is a (possibly partial) arena run outcome.
type Result struct {
	Aggregate
	Layout     Layout
	Checkpoint Checkpoint
}

// Run executes (or continues) an arena simulation. Identical Options —
// any Workers value included — return the identical Result bit for bit:
// parallel.Fold merges cells in cell order regardless of completion order.
// A Resume past the venue's last cell is an error.
func Run(opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	l := NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
	agg := opts.Resume.Agg
	next, err := parallel.Fold(opts.Context, l.Cells(), opts.Resume.NextCell, opts.MaxCells, opts.Workers,
		func(c int) Aggregate { return runCell(l, opts, c) },
		agg.merge)
	res := Result{Aggregate: agg, Layout: l}
	res.Checkpoint = Checkpoint{NextCell: next, Done: next == l.Cells(), Agg: agg}
	if err == nil && res.Checkpoint.Done {
		opts.Registry.Merge(agg.Metrics)
	}
	return res, err
}

// runCell simulates one ceiling cell: schedule its users against the TX,
// derive each served user's occlusion windows from the surrounding
// bodies, run the chaos slot model, then share the cell's backhaul slice
// among the momentarily-connected users.
func runCell(l Layout, opts Options, c int) Aggregate {
	reg := obs.NewRegistry()
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
	if p.TXCount > 1 && p.HandoverDark == 0 {
		p.HandoverDark = 2 * time.Millisecond
	}
	if p.TXCount > 1 && p.StandbyBlockProb == 0 {
		p.StandbyBlockProb = sim.StandbyBlockProbForSpacing(l.Pitch)
	}

	// Pass 1: slot model per served user, collecting per-slot link
	// verdicts for the contention pass.
	type userRun struct {
		res sim.ChaosTraceResult
		off []bool
	}
	runs := make([]userRun, len(served))
	for k, i := range served {
		tr := l.Trace(i, opts.TraceLen)
		var occs []handover.Occluder
		for _, j := range l.Neighbors(i) {
			pair := l.Occluder(j)
			occs = append(occs, pair[0], pair[1])
		}
		sched := fault.Schedule{
			Seed:    opts.Seed + 7919*int64(i),
			Windows: OcclusionWindows(tx, tr, occs),
		}
		// One verdict per slot: preallocated to the trace's slot count.
		run := userRun{}
		if p.Slot > 0 {
			run.off = make([]bool, 0, (tr.Duration()+p.Slot-1)/p.Slot)
		}
		run.res = sim.SimulateTraceChaosSlots(tr, p, &sched, reg, func(slot int, off bool) {
			run.off = append(run.off, off)
		})
		runs[k] = run
		agg.Slots += run.res.Slots
		agg.OffSlots += run.res.OffSlots
		agg.BlockedSlots += run.res.BlockedSlots
		agg.Outages += run.res.Outages
		agg.Handovers += run.res.Handovers
	}

	// Pass 2: per-slot backhaul contention. The cell owns an equal share
	// of the venue backhaul; each slot splits it across the users whose
	// links are up, capped by the per-link goodput ceiling.
	cellShare := opts.BackhaulGbps / float64(l.Cells())
	maxSlots := 0
	for _, r := range runs {
		if len(r.off) > maxSlots {
			maxSlots = len(r.off)
		}
	}
	up := make([]int, maxSlots)
	for _, r := range runs {
		for s, off := range r.off {
			if !off {
				up[s]++
			}
		}
	}
	slotLen := p.Slot
	for _, r := range runs {
		st := netem.NewStream()
		st.Metrics = sm
		for s, off := range r.off {
			rate := opts.LinkGoodputGbps
			if up[s] > 0 {
				if share := cellShare / float64(up[s]); share < rate {
					rate = share
				}
			}
			st.Tick(time.Duration(s)*slotLen, slotLen, !off, rate)
		}
		st.Finish()
		goodput := st.MeanGbps()
		avail := 1.0
		if r.res.Slots > 0 {
			avail = 1 - float64(r.res.BlockedSlots)/float64(r.res.Slots)
		}
		m.Goodput.Observe(goodput)
		agg.addServed(avail, goodput)
	}

	agg.Metrics = reg.Snapshot()
	return agg
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
