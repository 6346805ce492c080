package main

import (
	"fmt"
	"time"

	"cyclops/internal/arena"
	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/netem"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
)

// arenaWorkload is the densest cell of the fig16-arena sweep: 128
// headsets at 2 users/m², 8 per ceiling TX. It is the only corpus-scale
// user of netem.Stream.Tick (every slot of every user), the arena's
// occlusion geometry and the multi-TX rescue branch of the slot model.
var arenaWorkload = workload{
	name:     "arena",
	setup:    arenaSetup,
	replay:   arenaReplay,
	parallel: true,
}

func arenaOptions(sz size, seed int64) (arena.Options, error) {
	opts := arena.Options{
		Seed:       seed,
		Users:      sz.users,
		Density:    sz.density,
		UsersPerTX: sz.usersPerTX,
		TraceLen:   sz.traceLen,
		Workers:    1,
	}
	err := opts.Validate()
	return opts, err
}

func arenaSetup(sz size, seed int64) (pass, error) {
	opts, err := arenaOptions(sz, seed)
	if err != nil {
		return nil, err
	}
	return func(workers int) (summary, error) {
		o := opts
		o.Workers = workers
		o.Registry = obs.NewRegistry()
		res, err := arena.Run(o)
		if err != nil {
			return nil, err
		}
		if !res.Checkpoint.Done {
			return nil, fmt.Errorf("arena run stopped at cell %d", res.Checkpoint.NextCell)
		}
		return arenaSummary{res.Aggregate}, nil
	}, nil
}

// arenaSummary is an arena pass's aggregate.
type arenaSummary struct {
	Agg arena.Aggregate
}

func (s arenaSummary) check(sz size) error {
	a := s.Agg
	if a.Users != sz.users || a.Served+a.Unserved != a.Users {
		return fmt.Errorf("%d users (%d served, %d unserved), want %d", a.Users, a.Served, a.Unserved, sz.users)
	}
	return checkSlots(a.Slots, a.Served, int(sz.traceLen/sim.Paper25G().Slot), a.OffSlots, a.BlockedSlots)
}

func (s arenaSummary) modelled() modelled {
	a := s.Agg
	return modelled{
		work:            float64(a.Users),
		simSeconds:      float64(a.Slots) * sim.Paper25G().Slot.Seconds(),
		availabilityPct: a.MeanAvailability() * 100,
		goodputGbps:     a.MeanGoodputGbps(),
	}
}

func (s arenaSummary) counts() map[string]float64 {
	a := s.Agg
	return map[string]float64{
		"sim.slots":         float64(a.Slots),
		"sim.off_slots":     float64(a.OffSlots),
		"sim.blocked_slots": float64(a.BlockedSlots),
		"sim.handovers":     float64(a.Handovers),
		"sim.outages":       float64(a.Outages),
		"netem.packets":     a.Metrics.Counters["cyclops_netem_packets_total"],
	}
}

// arenaReplay is arena.Run's serial path rebuilt from the layers' public
// calls, cell by cell in cell order: generate each served user's trace
// (trace.gen), trace its beam against the neighbours' bodies
// (arena.occlusion), run the slot model (sim.slot_model), share the
// cell's backhaul slot by slot through netem streams (netem.tick), and
// fold the cell's metrics (obs.fold).
func arenaReplay(sz size, seed int64, sp *spans) (summary, map[string]float64, error) {
	opts, err := arenaOptions(sz, seed)
	if err != nil {
		return nil, nil, err
	}
	l := arena.NewLayout(opts.Seed, opts.Users, opts.Density, opts.Pitch)
	var agg arena.Aggregate
	var samples, windows int
	for c := 0; c < l.Cells(); c++ {
		cell, n, w := arenaCell(l, opts, c, sp)
		samples += n
		windows += w
		t := time.Now()
		mergeCell(&agg, cell)
		sp.end(spObsFold, t)
	}
	extra := map[string]float64{"trace.samples": float64(samples), "fault.windows": float64(windows)}
	return arenaSummary{agg}, extra, nil
}

// arenaCell simulates one ceiling cell exactly as the arena engine does,
// returning the cell's aggregate, trace samples and occlusion windows.
func arenaCell(l arena.Layout, opts arena.Options, c int, sp *spans) (arena.Aggregate, int, int) {
	reg := obs.NewRegistry()
	m := arena.NewMetrics(reg)
	sm := netem.NewStreamMetrics(reg)
	agg := arena.Aggregate{Cells: 1}
	m.Cells.Inc()

	lo, hi := l.CellUsers(c)
	agg.Users = hi - lo
	tx := l.TXPos(c)

	// Serve the UsersPerTX closest to the TX (ties by index).
	order := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		order = append(order, i)
	}
	floor := geom.V(tx.X, tx.Y, 0)
	for a := 0; a < len(order); a++ {
		best := a
		for b := a + 1; b < len(order); b++ {
			da := l.Home(order[best]).Dist(floor)
			db := l.Home(order[b]).Dist(floor)
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

	var samples, windows int
	offs := make([][]bool, len(served))
	results := make([]sim.ChaosTraceResult, len(served))
	for k, i := range served {
		t := time.Now()
		tr := l.Trace(i, opts.TraceLen)
		sp.end(spTraceGen, t)
		samples += len(tr.Samples)

		var occs []handover.Occluder
		for _, j := range l.Neighbors(i) {
			pair := l.Occluder(j)
			occs = append(occs, pair[0], pair[1])
		}
		t = time.Now()
		sched := fault.Schedule{Seed: opts.Seed + 7919*int64(i), Windows: arena.OcclusionWindows(tx, tr, occs)}
		sp.end(spArenaOcclusion, t)
		windows += len(sched.Windows)

		t = time.Now()
		results[k] = sim.SimulateTraceChaosSlots(tr, p, &sched, reg, func(_ int, off bool) {
			offs[k] = append(offs[k], off)
		})
		sp.end(spSlotModel, t)
		replayScheduleAt(sp, &sched, tr.Duration(), p.Slot, 1)

		r := results[k]
		agg.Slots += r.Slots
		agg.OffSlots += r.OffSlots
		agg.BlockedSlots += r.BlockedSlots
		agg.Outages += r.Outages
		agg.Handovers += r.Handovers
	}

	// Backhaul contention: the cell's equal share of the venue backhaul
	// splits across the users up in each slot, capped at the link rate.
	t := time.Now()
	cellShare := opts.BackhaulGbps / float64(l.Cells())
	maxSlots := 0
	for _, off := range offs {
		maxSlots = max(maxSlots, len(off))
	}
	up := make([]int, maxSlots)
	for _, off := range offs {
		for s, o := range off {
			if !o {
				up[s]++
			}
		}
	}
	for k, off := range offs {
		st := netem.NewStream()
		st.Metrics = sm
		for s, o := range off {
			rate := opts.LinkGoodputGbps
			if up[s] > 0 {
				if share := cellShare / float64(up[s]); share < rate {
					rate = share
				}
			}
			st.Tick(time.Duration(s)*p.Slot, p.Slot, !o, rate)
		}
		st.Finish()
		goodput := st.MeanGbps()
		avail := 1.0
		if r := results[k]; r.Slots > 0 {
			avail = 1 - float64(r.BlockedSlots)/float64(r.Slots)
		}
		m.Goodput.Observe(goodput)
		addServed(&agg, avail, goodput)
	}
	sp.end(spNetemTick, t)

	t = time.Now()
	agg.Metrics = reg.Snapshot()
	sp.end(spObsFold, t)
	return agg, samples, windows
}

// addServed is arena.Aggregate's per-served-user fold.
func addServed(a *arena.Aggregate, avail, goodput float64) {
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

// mergeCell is arena.Aggregate's cell fold, in cell order.
func mergeCell(a *arena.Aggregate, o arena.Aggregate) {
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
