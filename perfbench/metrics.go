package main

import "time"

// metricDef is a metric's name and unit, as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"traces_per_s", "1/s"},
	{"realtime_x", "x"},
	{"alloc_mb", "MB"},
	{"availability_pct", "%"},
	{"goodput_gbps", "Gbps"},
}

// layerCounts are the exact per-layer counts. A workload that does not
// reach a layer reports 0 for it.
var layerCounts = []string{
	"trace.samples",
	"sim.slots",
	"sim.off_slots",
	"sim.blocked_slots",
	"sim.handovers",
	"sim.outages",
	"fault.windows",
	"policy.failovers",
	"policy.readmits",
	"policy.secondary_slots",
	"netem.packets",
	"core.ticks",
	"core.reports",
	"core.disconnections",
	"pointing.solves",
	"pointing.failures",
	"pointing.beam_evals",
	"pointing.iterations",
	"link.power_reads",
	"optimize.lm_evals",
	"optimize.nm_evals",
}

// layerPercents are per-layer modelled percentages, 0 where a workload
// does not reach the layer.
var layerPercents = []string{"sim.availability_p2_pct", "link.up_pct"}

// minCoverage is the lowest trace.coverage a traced run accepts: below it
// the spans no longer account for the pass they claim to time.
const minCoverage = 0.9

// perLayer lists every metric a traced run prints, on every workload.
func perLayer() []metricDef {
	var defs []metricDef
	for _, n := range spanNames {
		defs = append(defs, metricDef{n + ".calls", "count"}, metricDef{n + ".share", "ratio"})
	}
	for _, n := range layerCounts {
		defs = append(defs, metricDef{n, "count"})
	}
	for _, n := range layerPercents {
		defs = append(defs, metricDef{n, "%"})
	}
	return append(defs,
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead", "ratio"},
	)
}

// layerMetrics fills out with the per-layer metrics of identical traced
// replays whose spans sp accumulated over wall: per span its calls per
// replay and its share of the traced wall time, the exact counts, and the
// share of the traced wall time the top-level spans cover. The caller adds
// trace.wall_s and trace.overhead.
func layerMetrics(out map[string]metric, sp *spans, replays int, wall time.Duration, counts ...map[string]float64) {
	for s := span(0); s < nSpans; s++ {
		out[spanNames[s]+".calls"] = metric{float64(sp.calls[s] / int64(replays)), "count"}
		out[spanNames[s]+".share"] = metric{sp.busy[s].Seconds() / wall.Seconds(), "ratio"}
	}
	for _, n := range layerCounts {
		out[n] = metric{0, "count"}
	}
	for _, n := range layerPercents {
		out[n] = metric{0, "%"}
	}
	for _, c := range counts {
		for n, v := range c {
			out[n] = metric{v, out[n].Unit}
		}
	}
	out["trace.coverage"] = metric{sp.covered().Seconds() / wall.Seconds(), "ratio"}
}
