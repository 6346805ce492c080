package arena

import (
	"cmp"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
)

// testOpts is a small but non-degenerate venue: 32 users over 16 cells,
// short traces, hermetic registry.
func testOpts(workers int) Options {
	return Options{
		Seed:     7,
		Users:    32,
		Density:  0.5,
		TraceLen: 10 * time.Second,
		Workers:  workers,
		Registry: obs.NewRegistry(),
	}
}

func TestLayoutPartition(t *testing.T) {
	for _, users := range []int{1, 5, 16, 33, 100} {
		l := NewLayout(3, users, 0.5, 2.0)
		covered := 0
		for c := 0; c < l.Cells(); c++ {
			lo, hi := l.CellUsers(c)
			if hi < lo {
				t.Fatalf("users=%d cell %d: inverted range [%d,%d)", users, c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if l.CellOf(i) != c {
					t.Fatalf("users=%d: CellOf(%d)=%d but CellUsers(%d) claims it", users, i, l.CellOf(i), c)
				}
			}
			covered += hi - lo
		}
		if covered != users {
			t.Fatalf("users=%d: partition covers %d", users, covered)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(3, 32, 0.5, 2.0)
	if l.NX != 4 || l.NY != 4 {
		t.Fatalf("8x8m venue at 2m pitch gridded %dx%d", l.NX, l.NY)
	}
	for i := 0; i < l.Users; i++ {
		h := l.Home(i)
		if h.X < -l.W/2 || h.X > l.W/2 || h.Y < -l.D/2 || h.Y > l.D/2 {
			t.Errorf("user %d home %v outside the venue", i, h)
		}
		c := l.CellOf(i)
		tx := l.TXPos(c)
		if dx := h.X - tx.X; dx < -l.CellW/2 || dx > l.CellW/2 {
			t.Errorf("user %d home %v outside cell %d (tx %v)", i, h, c, tx)
		}
	}
	// Corner, edge, and interior cells see 2, 3, and 4 standby TXs.
	if got := l.Standbys(0); got != 2 {
		t.Errorf("corner cell standbys = %d", got)
	}
	if got := l.Standbys(1); got != 3 {
		t.Errorf("edge cell standbys = %d", got)
	}
	if got := l.Standbys(5); got != 4 {
		t.Errorf("interior cell standbys = %d", got)
	}
}

func TestNeighborsBoundedAndOrdered(t *testing.T) {
	l := NewLayout(3, 64, 1.0, 2.0)
	for i := 0; i < l.Users; i++ {
		ns := l.Neighbors(i)
		if len(ns) > MaxNeighbors {
			t.Fatalf("user %d has %d neighbors", i, len(ns))
		}
		home := l.Home(i)
		last := -1.0
		for _, j := range ns {
			if j == i {
				t.Fatalf("user %d neighbors itself", i)
			}
			d := l.Home(j).Dist(home)
			if d > NeighborRadius {
				t.Fatalf("user %d neighbor %d at %.2fm", i, j, d)
			}
			if d < last {
				t.Fatalf("user %d neighbors not sorted by distance", i)
			}
			last = d
		}
	}
}

// bruteNeighbors is Neighbors by a scan of every user in the venue.
func bruteNeighbors(l Layout, i int) []int {
	type cand struct {
		idx  int
		dist float64
	}
	var cands []cand
	home := l.Home(i)
	for j := 0; j < l.Users; j++ {
		if d := l.Home(j).Dist(home); j != i && d <= NeighborRadius {
			cands = append(cands, cand{j, d})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.idx, b.idx))
	})
	out := make([]int, 0, MaxNeighbors)
	for _, c := range cands[:min(len(cands), MaxNeighbors)] {
		out = append(out, c.idx)
	}
	return out
}

// TestNeighborsMatchBruteForce holds Neighbors to a scan of every user at
// pitches down to a cell narrower than NeighborRadius/2, where homes
// within reach lie two rings of cells away. A scan of the 3×3 block alone
// returns the wrong set for 91, 18 and 3 users at pitches 0.6, 0.8 and 1.0.
func TestNeighborsMatchBruteForce(t *testing.T) {
	for _, pitch := range []float64{0.6, 0.8, 1.0, 1.5, 2.0, 3.0} {
		l := NewLayout(1, 128, 2, pitch)
		for i := 0; i < l.Users; i++ {
			if got, want := l.Neighbors(i), bruteNeighbors(l, i); !slices.Equal(got, want) {
				t.Errorf("pitch %g (cell %.3f m) user %d: neighbors %v, want %v", pitch, l.CellW, i, got, want)
			}
		}
	}
}

func TestOcclusionWindowsFire(t *testing.T) {
	// A user surrounded at density 1.0 must see some occlusion over a
	// minute; windows must be ordered and within the trace (plus the
	// trailing sampling step).
	l := NewLayout(7, 64, 1.0, 2.0)
	total := 0
	for i := 0; i < l.Users; i++ {
		tr := l.Trace(i, time.Minute)
		wins := oracleWindows(l, i, tr)
		prev := time.Duration(-1)
		for _, w := range wins {
			if w.Start < prev || w.End <= w.Start {
				t.Fatalf("user %d: malformed window %+v", i, w)
			}
			prev = w.End
			if w.End > tr.Duration()+OcclusionStep {
				t.Fatalf("user %d: window past trace end: %+v", i, w)
			}
		}
		total += len(wins)
	}
	if total == 0 {
		t.Fatal("no occlusion windows anywhere at density 1.0 — the crowd model is inert")
	}
}

func TestRunWorkerDeterminism(t *testing.T) {
	serial, err := Run(testOpts(1))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Handovers == 0 && serial.Outages == 0 {
		t.Fatal("no occlusion events fired — determinism test is vacuous")
	}
	if serial.Served == 0 || serial.Slots == 0 {
		t.Fatalf("empty run: %+v", serial.Aggregate)
	}
	// Three workers split the cells unevenly, so each worker's scratch
	// sees a different cell sequence than at two or four.
	for _, workers := range []int{2, 3, 4} {
		got, err := Run(testOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Result differs from serial", workers)
		}
		if got.Metrics.Exposition() != serial.Metrics.Exposition() {
			t.Errorf("workers=%d: metrics exposition differs from serial", workers)
		}
	}
}

func TestRunResume(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	for _, window := range []int{1, 3, 7} {
		ck := Checkpoint{}
		var prev Result
		var prevExp string
		for !ck.Done {
			opts := testOpts(2)
			opts.Resume = ck
			opts.MaxCells = window
			part, err := Run(opts)
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			// The resumed run folds into a copy of its Resume.Agg metrics,
			// never into the maps the previous result still holds.
			if prev.Metrics.Exposition() != prevExp {
				t.Fatalf("window=%d: resuming at cell %d wrote into the previous result's metrics", window, ck.NextCell)
			}
			prev, prevExp = part, part.Metrics.Exposition()
			ck = part.Checkpoint
		}
		if !reflect.DeepEqual(ck, full.Checkpoint) {
			t.Errorf("window=%d: stitched checkpoint differs from uninterrupted run", window)
		}
		if ck.Agg.Metrics.Exposition() != full.Metrics.Exposition() {
			t.Errorf("window=%d: stitched metrics exposition differs", window)
		}
	}
}

func TestRunCancel(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOpts(2)
	opts.Context = ctx
	part, err := Run(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if part.Checkpoint.Done {
		t.Fatal("canceled run claims Done")
	}
	resume := testOpts(2)
	resume.Resume = part.Checkpoint
	rest, err := Run(resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rest.Checkpoint, full.Checkpoint) {
		t.Error("resumed-after-cancel checkpoint differs from uninterrupted run")
	}
}

// TestRunResumeOutOfRange: a checkpoint from the 16-cell test venue
// resumed on a 4-cell venue is an error, never a Done run.
func TestRunResumeOutOfRange(t *testing.T) {
	full, err := Run(testOpts(2))
	if err != nil || full.Checkpoint.NextCell != 16 {
		t.Fatalf("full: next cell %d, err %v; want 16 cells done", full.Checkpoint.NextCell, err)
	}
	small := testOpts(2)
	small.Users = 8
	small.Resume = full.Checkpoint
	res, err := Run(small)
	if err == nil || res.Checkpoint.Done {
		t.Fatalf("resume past the venue's %d cells: err %v, Done %v; want an error",
			res.Layout.Cells(), err, res.Checkpoint.Done)
	}
}

func TestUsersPerTXCap(t *testing.T) {
	opts := testOpts(2)
	opts.UsersPerTX = 1
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Layout.Cells() || res.Unserved != res.Users-res.Served {
		t.Fatalf("cap=1 served %d / unserved %d over %d cells", res.Served, res.Unserved, res.Layout.Cells())
	}
}

func TestContentionSharesBackhaul(t *testing.T) {
	// Halving the backhaul should at most halve-ish the contended mean
	// goodput and never raise it.
	a := testOpts(2)
	b := testOpts(2)
	b.BackhaulGbps = 50
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanGoodputGbps() >= ra.MeanGoodputGbps() {
		t.Errorf("goodput did not drop with backhaul: %.3f vs %.3f",
			rb.MeanGoodputGbps(), ra.MeanGoodputGbps())
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, bad := range []Options{
		{},
		{Users: 10},
		{Users: 10, Density: 0.5, UsersPerTX: -1},
		{Users: 10, Density: 0.5, MaxCells: -1},
		{Users: 10, Density: 0.5, Resume: Checkpoint{NextCell: -1}},
		{Users: 10, Density: math.NaN()},
		{Users: 10, Density: math.Inf(1)},
		{Users: 10, Density: 0.5, Pitch: math.NaN()},
		{Users: 10, Density: 0.5, Pitch: math.Inf(1)},
		{Users: 10, Density: 0.5, BackhaulGbps: math.NaN()},
		{Users: 10, Density: 0.5, BackhaulGbps: math.Inf(1)},
		{Users: 10, Density: 0.5, LinkGoodputGbps: math.NaN()},
		{Users: 10, Density: 0.5, LinkGoodputGbps: math.Inf(1)},
		{Users: 10, Density: 0.5, Pitch: -2},
		{Users: 10, Density: 0.5, BackhaulGbps: -100},
		{Users: 10, Density: 0.5, TraceLen: -time.Second},
		{Users: 10, Density: 0.5, Params: sim.ChaosParams{AvailabilityParams: sim.AvailabilityParams{LateralTolerance: math.NaN()}}},
		{Users: 10, Density: 0.5, Params: sim.ChaosParams{StandbyBlockProb: 2}},
		{Users: 10, Density: 0.5, Params: sim.ChaosParams{Relock: -time.Second}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	o := Options{Users: 10, Density: 0.5}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.UsersPerTX != 4 || o.TraceLen != time.Minute || o.Pitch != 2.0 ||
		o.BackhaulGbps != 100 || o.LinkGoodputGbps == 0 || o.Registry == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// runCellPerSlot is the per-slot oracle of runCell: pass 1 takes the
// occlusion windows from the per-sample reference (oracleWindows) and
// collects one verdict per slot through SimulateTraceChaosSlots, pass 2
// counts the cell's up users slot by slot and feeds every slot to its own
// netem.Stream.Tick. TestRunCellMatchesPerSlot holds runCell to it.
func runCellPerSlot(l Layout, opts Options, c int) Aggregate {
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
		sched := fault.Schedule{
			Seed:    opts.Seed + 7919*int64(i),
			Windows: oracleWindows(l, i, tr),
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

// FuzzArenaOptionsValidate: Validate never panics, rejects every NaN
// field (the slot-model Params included), and what it accepts is a
// finite, non-negative configuration with every default installed, which
// a second Validate leaves as it is.
func FuzzArenaOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, users int, density, pitch, backhaul, goodput float64, usersPerTX int, traceLen int64,
		maxCells, nextCell int, latTol, angTol, tpLat, tpAng float64, slot, realign int64,
		blockDB float64, relock, dark int64, standby float64, txCount int) {
		o := Options{
			Users: users, Density: density, Pitch: pitch, BackhaulGbps: backhaul, LinkGoodputGbps: goodput,
			UsersPerTX: usersPerTX, TraceLen: time.Duration(traceLen), MaxCells: maxCells,
			Resume: Checkpoint{NextCell: nextCell},
			Params: sim.ChaosParams{
				AvailabilityParams: sim.AvailabilityParams{
					Slot: time.Duration(slot), RealignLatency: time.Duration(realign),
					LateralTolerance: latTol, AngularTolerance: angTol, TPLateralError: tpLat, TPAngularError: tpAng,
				},
				BlockAttenDB: blockDB, Relock: time.Duration(relock), HandoverDark: time.Duration(dark),
				StandbyBlockProb: standby, TXCount: txCount,
			},
		}
		err := o.Validate()
		for _, v := range []float64{density, pitch, backhaul, goodput, latTol, angTol, tpLat, tpAng, blockDB, standby} {
			if math.IsNaN(v) && err == nil {
				t.Fatalf("Validate accepted a NaN field: %+v", o)
			}
		}
		if err != nil {
			return
		}
		p := o.Params
		for _, v := range []float64{o.Density, o.Pitch, o.BackhaulGbps, o.LinkGoodputGbps} {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("Validate accepted or defaulted to %v: %+v", v, o)
			}
		}
		for _, v := range []float64{p.LateralTolerance, p.AngularTolerance, p.TPLateralError, p.TPAngularError, p.StandbyBlockProb} {
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("Validate accepted slot-model value %v: %+v", v, p)
			}
		}
		if o.Users <= 0 || o.UsersPerTX <= 0 || o.TraceLen <= 0 || o.MaxCells < 0 || o.Resume.NextCell < 0 ||
			p.Slot < 0 || p.RealignLatency < 0 || p.Relock < 0 || p.HandoverDark < 0 || p.StandbyBlockProb > 1 ||
			math.IsInf(p.BlockAttenDB, 0) {
			t.Fatalf("Validate accepted %+v", o)
		}
		again := o
		if err := again.Validate(); err != nil || !reflect.DeepEqual(again, o) {
			t.Fatalf("a second Validate changed accepted options: %v\n%+v\n%+v", err, o, again)
		}
	})
}
