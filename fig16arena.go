package cyclops

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cyclops/internal/arena"
)

// ------------------------------------------------------- fig16-arena —

// Fig16ArenaCell is one point of the arena capacity sweep: a venue at a
// crowd density, each ceiling TX capped at UsersPerTX headsets.
type Fig16ArenaCell struct {
	UsersPerTX int
	Density    float64 // users per m²
	Users      int
	TXs        int
	Served     int
	Unserved   int
	// MeanAvailability / MinAvailability are the occlusion-layer
	// availability (1 − blocked/total slots — fig16-handover's
	// ChaosAvailability) across and at the worst served user.
	MeanAvailability float64
	MinAvailability  float64
	// Frac99 and Frac999 are the fraction of served users whose
	// occlusion availability meets two and three nines — the capacity
	// planning numbers.
	Frac99  float64
	Frac999 float64
	// MeanGoodputGbps / MinGoodputGbps are the per-user TCP goodput
	// under shared-backhaul contention.
	MeanGoodputGbps float64
	MinGoodputGbps  float64
	Outages         int
	Handovers       int
}

// Fig16ArenaResult is the fig16-arena experiment: the single-headset §5.4
// availability study scaled to a crowded venue on the arena engine.
type Fig16ArenaResult struct {
	VenueW       float64
	PitchM       float64
	TraceLen     time.Duration
	BackhaulGbps float64
	Cells        []Fig16ArenaCell
}

// fig16ArenaGrid parameterizes the sweep so the determinism suite can
// push a trimmed grid through the identical pipeline.
type fig16ArenaGrid struct {
	areaM2     float64
	usersPerTX []int
	densities  []float64
	traceLen   time.Duration
}

// fig16ArenaSweep: an 8×8 m venue (16 ceiling TXs at the 2 m pitch),
// light/standing/packed crowds × three per-TX serving caps.
var fig16ArenaSweep = fig16ArenaGrid{
	areaM2:     64,
	usersPerTX: []int{2, 4, 8},
	densities:  []float64{0.5, 1.0, 2.0},
	traceLen:   time.Minute,
}

// Fig16Arena runs the arena capacity sweep on the default worker pool.
// The sweep is a pure function of the seed: every worker count returns
// the identical result bit for bit (the arena engine folds its ceiling
// cells in cell order regardless of completion order).
func Fig16Arena(seed int64) (Fig16ArenaResult, error) {
	return fig16ArenaRun(seed, 0, fig16ArenaSweep)
}

// Fig16ArenaAt runs a single arena configuration on the default worker
// pool — the cyclops-sim -users/-density entry point. The venue is sized
// to hold users at density; usersPerTX ≤ 0 takes the arena default.
func Fig16ArenaAt(seed int64, users int, density float64, usersPerTX int) (Fig16ArenaResult, error) {
	grid := fig16ArenaGrid{
		areaM2:     float64(users) / density,
		usersPerTX: []int{usersPerTX},
		densities:  []float64{density},
		traceLen:   time.Minute,
	}
	if usersPerTX <= 0 {
		grid.usersPerTX = []int{4}
	}
	return fig16ArenaRun(seed, 0, grid)
}

func fig16ArenaRun(seed int64, workers int, grid fig16ArenaGrid) (Fig16ArenaResult, error) {
	res := Fig16ArenaResult{VenueW: math.Sqrt(grid.areaM2)}
	for _, density := range grid.densities {
		users := int(math.Round(grid.areaM2 * density))
		for _, cap := range grid.usersPerTX {
			run, err := arena.Run(arena.Options{
				Seed:       seed,
				Users:      users,
				Density:    density,
				UsersPerTX: cap,
				TraceLen:   grid.traceLen,
				Workers:    workers,
			})
			if err != nil {
				return res, err
			}
			res.PitchM = run.Layout.Pitch
			res.TraceLen = grid.traceLen
			if res.BackhaulGbps == 0 {
				res.BackhaulGbps = 100
			}
			cell := Fig16ArenaCell{
				UsersPerTX:       cap,
				Density:          density,
				Users:            run.Users,
				TXs:              run.Layout.Cells(),
				Served:           run.Served,
				Unserved:         run.Unserved,
				MeanAvailability: run.MeanAvailability(),
				MinAvailability:  run.MinAvailability,
				MeanGoodputGbps:  run.MeanGoodputGbps(),
				MinGoodputGbps:   run.MinGoodputGbps,
				Outages:          run.Outages,
				Handovers:        run.Handovers,
			}
			if run.Served > 0 {
				cell.Frac99 = float64(run.Avail99) / float64(run.Served)
				cell.Frac999 = float64(run.Avail999) / float64(run.Served)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Render prints the sweep and the capacity-planning lines: headsets one
// ceiling TX serves at two and three nines of occlusion availability.
func (r Fig16ArenaResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16-arena: multi-user capacity, %.1f×%.1f m venue (%.1f m ceiling pitch, %s sessions, %.0f Gbps shared backhaul)\n",
		r.VenueW, r.VenueW, r.PitchM, r.TraceLen, r.BackhaulGbps)
	b.WriteString("  per-TX  density  users  txs  served  unserved  avail mean   worst   ≥2 nines  ≥3 nines  goodput mean    min  handovers\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %6d  %5.2f/m²  %5d  %3d  %6d  %8d  %9.4f%%  %6.3f%%  %7.1f%%  %7.1f%%  %9.2f Gb  %5.2f  %9d\n",
			c.UsersPerTX, c.Density, c.Users, c.TXs, c.Served, c.Unserved,
			c.MeanAvailability*100, c.MinAvailability*100,
			c.Frac99*100, c.Frac999*100,
			c.MeanGoodputGbps, c.MinGoodputGbps, c.Handovers)
	}
	// Capacity planning: for each serving cap, the densest crowd where
	// 99% of served users hold two nines and where 95% hold three.
	for _, cap := range uniqueCaps(r.Cells) {
		best99, best999 := -1.0, -1.0
		for _, c := range r.Cells {
			if c.UsersPerTX != cap || c.Served == 0 {
				continue
			}
			if c.Frac99 >= 0.99 && c.Density > best99 {
				best99 = c.Density
			}
			if c.Frac999 >= 0.95 && c.Density > best999 {
				best999 = c.Density
			}
		}
		fmt.Fprintf(&b, "  capacity: %d users/TX holds 99%% avail up to %s and 99.9%% (95%% of users) up to %s\n",
			cap, densityOrNone(best99), densityOrNone(best999))
	}
	return b.String()
}

func uniqueCaps(cells []Fig16ArenaCell) []int {
	var caps []int
	for _, c := range cells {
		seen := false
		for _, k := range caps {
			if k == c.UsersPerTX {
				seen = true
				break
			}
		}
		if !seen {
			caps = append(caps, c.UsersPerTX)
		}
	}
	return caps
}

func densityOrNone(d float64) string {
	if d < 0 {
		return "no swept density"
	}
	return fmt.Sprintf("%.2f users/m²", d)
}
