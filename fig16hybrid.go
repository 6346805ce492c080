package cyclops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// ------------------------------------------------------ fig16-hybrid —

// fig16HybridQuantiles are the per-trace distribution points each cell
// reports, in order: p5, p25, p50, p75, p95.
var fig16HybridQuantiles = [5]float64{0.05, 0.25, 0.5, 0.75, 0.95}

// Fig16HybridCell is one point of the hybrid sweep: a fault schedule × a
// medium (FSO-only, mmWave-only, or the hybrid policy) over the shared
// corpus.
type Fig16HybridCell struct {
	Schedule string
	Medium   string
	// MeanAvailability / MinAvailability are the delivered on-fraction
	// (for the hybrid arm: whichever medium the policy had carrying).
	MeanAvailability float64
	MinAvailability  float64
	// MeanGoodputGbps is the slot-weighted delivered goodput across the
	// corpus.
	MeanGoodputGbps float64
	// AvailQ / GoodputQ are the p5/p25/p50/p75/p95 quantiles of the
	// per-trace availability and mean goodput distributions.
	AvailQ   [5]float64
	GoodputQ [5]float64
	// Failovers / Readmits / SecondaryFraction / MinSecondaryDwell are
	// zero except on the hybrid arm.
	Failovers         int
	Readmits          int
	SecondaryFraction float64
	MinSecondaryDwell time.Duration
}

// Fig16HybridResult is the fig16-hybrid experiment: the §5.4 availability
// study re-run as a medium shoot-out — FSO-only vs mmWave-only vs the
// hybrid failover policy — under clean, occlusion-storm, and haze-ramp
// fault schedules.
type Fig16HybridResult struct {
	Traces   int
	TraceLen time.Duration
	Cells    []Fig16HybridCell
}

// fig16HybridGrid parameterizes the sweep so the determinism suite can
// push a trimmed corpus through the identical pipeline.
type fig16HybridGrid struct {
	n      int
	length time.Duration
}

var fig16HybridSweep = fig16HybridGrid{n: trace.DatasetTraces, length: time.Minute}

// fig16HybridSchedules are the three environments, in render order. The
// occlusion storm is physical (blocks both media); the haze ramp is
// optical-only (transparent at 60 GHz) — the scenario the hybrid policy
// exists for.
func fig16HybridSchedules() []struct {
	name string
	cfg  fault.Config
} {
	storm := fault.Config{
		Occlusion:        fault.ClassConfig{PerMin: 2, MinDur: 500 * time.Millisecond, MaxDur: 500 * time.Millisecond},
		OcclusionDepthDB: [2]float64{25, 45},
		OcclusionRamp:    10 * time.Millisecond,
	}
	return []struct {
		name string
		cfg  fault.Config
	}{
		{"clean", fault.Config{}},
		{"occlusion-storm", storm},
		{"haze-ramp", fault.DefaultHazeConfig()},
	}
}

// Fig16Hybrid runs the hybrid medium sweep on the default worker pool.
// The sweep is a pure function of the seed: corpus, per-trace fault
// plans, and all three slot models are seeded, so every worker count
// returns the identical result bit for bit. Every cell's metrics merge
// into obs.Default(), cell by cell in sweep order.
func Fig16Hybrid(seed int64) (Fig16HybridResult, error) {
	return fig16HybridRun(seed, 0, fig16HybridSweep, obs.Default())
}

// fig16HybridRun runs the sweep over grid and merges each cell's corpus
// metrics into reg.
func fig16HybridRun(seed int64, workers int, grid fig16HybridGrid, reg *obs.Registry) (Fig16HybridResult, error) {
	src := trace.Source{Seed: seed, N: grid.n, Length: grid.length, Origin: TraceSource(seed).Origin}
	traces := sim.Materialize(src, workers)
	res := Fig16HybridResult{Traces: grid.n, TraceLen: grid.length}
	for _, sched := range fig16HybridSchedules() {
		for _, medium := range []string{"fso", "mmwave", "hybrid"} {
			chaos := &sim.CorpusChaos{Config: sched.cfg, Seed: seed + 1}
			switch medium {
			case "mmwave":
				chaos.MmWaveOnly = &sim.MmWaveSlotParams{}
			case "hybrid":
				chaos.Hybrid = &sim.HybridSlotParams{}
			}
			run, err := sim.RunCorpus(sim.TraceSlice(traces), sim.CorpusOptions{
				Chaos:        chaos,
				Workers:      workers,
				KeepPerTrace: true,
				Registry:     reg,
			})
			if err != nil {
				return res, err
			}
			cell := Fig16HybridCell{
				Schedule:          sched.name,
				Medium:            medium,
				MeanAvailability:  run.MeanOnFraction,
				MinAvailability:   run.MinOnFraction,
				Failovers:         run.Failovers,
				Readmits:          run.Readmits,
				MinSecondaryDwell: run.MinSecondaryDwell,
			}
			if run.Slots > 0 {
				cell.SecondaryFraction = float64(run.SecondarySlots) / float64(run.Slots)
			}
			avail := make([]float64, len(run.PerTrace))
			goodput := make([]float64, len(run.PerTrace))
			var gsum float64
			for i, r := range run.PerTrace {
				avail[i] = r.OnFraction
				g := r.MeanGoodputGbps
				if medium == "fso" {
					// The plain chaos model reports availability only;
					// its delivered rate is on-fraction × the 25G optimal.
					g = r.OnFraction * Link25G.Transceiver.OptimalGoodputGbps
				}
				goodput[i] = g
				gsum += g * float64(r.Slots)
			}
			if run.Slots > 0 {
				cell.MeanGoodputGbps = gsum / float64(run.Slots)
			}
			cell.AvailQ = fig16HybridQuantileSet(avail)
			cell.GoodputQ = fig16HybridQuantileSet(goodput)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// fig16HybridQuantileSet sorts a copy and reads the nearest-rank quantile
// at each of the five report points.
func fig16HybridQuantileSet(xs []float64) [5]float64 {
	var q [5]float64
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range fig16HybridQuantiles {
		q[i] = s[int(math.Round(p*float64(len(s)-1)))]
	}
	return q
}

// Render prints the sweep table and the haze-ramp availability CDF — the
// environment where the three media genuinely separate.
func (r Fig16HybridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16-hybrid: FSO vs mmWave vs hybrid failover policy (%d traces × %s)\n",
		r.Traces, r.TraceLen)
	b.WriteString("  schedule         medium   avail mean    worst      p5      p50  goodput mean    p50  failovers  readmits  on-2nd  min dwell\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-15s  %-7s  %9.3f%%  %7.3f%%  %6.2f%%  %6.2f%%  %9.2f Gb  %5.2f  %9d  %8d  %5.1f%%  %9s\n",
			c.Schedule, c.Medium,
			c.MeanAvailability*100, c.MinAvailability*100,
			c.AvailQ[0]*100, c.AvailQ[2]*100,
			c.MeanGoodputGbps, c.GoodputQ[2],
			c.Failovers, c.Readmits, c.SecondaryFraction*100, dwellOrDash(c.MinSecondaryDwell))
	}
	// The headline comparison: per-trace availability quantiles on the
	// haze ramp, where fog kills the optical budget but not 60 GHz.
	b.WriteString("  haze-ramp availability quantiles (p5/p25/p50/p75/p95):\n")
	for _, c := range r.Cells {
		if c.Schedule != "haze-ramp" {
			continue
		}
		fmt.Fprintf(&b, "    %-7s:", c.Medium)
		for _, q := range c.AvailQ {
			fmt.Fprintf(&b, "  %6.2f%%", q*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func dwellOrDash(d time.Duration) string {
	if d == 0 {
		return "—"
	}
	return d.String()
}
