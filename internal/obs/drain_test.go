package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// drainOp is one recording step of a FuzzRegistryDrain script.
type drainOp struct {
	kind byte // 0 counter Add, 1 counter AddN, 2 gauge Set, 3 gauge Add, 4 Observe, 5 register only
	name int  // index into the kind's names (every name for kind 5)
	v    float64
	n    int // AddN's count
	help bool
}

// drainShard is a run of traces one worker records, one op list each.
type drainShard struct {
	worker int
	traces [][]drainOp
}

var (
	drainCounters = []string{"c_a_total", "c_b_total", "c_c_total"}
	drainGauges   = []string{"g_a", "g_b"}
	drainHists    = []string{"h_a", "h_b"}
	drainBounds   = [][]float64{{0, 0.001, 0.5, 1, 10}, {-1, 1e300}}
	// drainValues mixes integers, fractions whose sums round, extremes,
	// negatives (which counters drop), −0 and the non-finite values.
	drainValues = []float64{0, 1, 2, 3, 0.5, 0.1, 1.0 / 3, 1e-300, 1e300, 1.7e308, 1 << 53, 1<<52 + 1, 7e-5, -1, -2.5,
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
)

const drainWorkers = 3

// parseDrainScript reads a script two bytes per op. The op byte's low
// three bits pick the op: 0–5 as drainOp.kind, 6 ends the trace, 7 ends
// the shard (the arg byte picks the next shard's worker). Bits 3–4 pick
// the name (bits 3–5 for kind 5), bits 5–7 AddN's count. The arg byte's
// low seven bits pick the value, its high bit whether help is passed.
func parseDrainScript(script []byte) []drainShard {
	shards := []drainShard{{traces: [][]drainOp{nil}}}
	for i := 0; i+1 < len(script); i += 2 {
		b, arg := script[i], script[i+1]
		sh := &shards[len(shards)-1]
		tr := &sh.traces[len(sh.traces)-1]
		switch kind := b & 7; kind {
		case 6:
			sh.traces = append(sh.traces, nil)
		case 7:
			shards = append(shards, drainShard{worker: int(arg) % drainWorkers, traces: [][]drainOp{nil}})
		default:
			op := drainOp{kind: kind, name: int(b >> 3 & 3), v: drainValues[int(arg&0x7f)%len(drainValues)], n: int(b >> 5), help: arg&0x80 != 0}
			if kind == 5 {
				op.name = int(b>>3&7) % (len(drainCounters) + len(drainGauges) + len(drainHists))
			}
			*tr = append(*tr, op)
		}
	}
	return shards
}

func drainHelp(name string, on bool) string {
	if !on {
		return ""
	}
	return "Help for " + name + "."
}

// record applies one trace's ops to r, registering as it goes.
func record(r *Registry, ops []drainOp) {
	for _, op := range ops {
		switch op.kind {
		case 0, 1:
			name := drainCounters[op.name%len(drainCounters)]
			c := r.Counter(name, drainHelp(name, op.help))
			if op.kind == 0 {
				c.Add(op.v)
			} else {
				c.AddN(op.v, op.n)
			}
		case 2, 3:
			name := drainGauges[op.name%len(drainGauges)]
			g := r.Gauge(name, drainHelp(name, op.help))
			if op.kind == 2 {
				g.Set(op.v)
			} else {
				g.Add(op.v)
			}
		case 4:
			k := op.name % len(drainHists)
			r.Histogram(drainHists[k], drainHelp(drainHists[k], op.help), drainBounds[k]).Observe(op.v)
		case 5:
			switch k := op.name; {
			case k < len(drainCounters):
				r.Counter(drainCounters[k], drainHelp(drainCounters[k], op.help))
			case k < len(drainCounters)+len(drainGauges):
				name := drainGauges[k-len(drainCounters)]
				r.Gauge(name, drainHelp(name, op.help))
			default:
				k -= len(drainCounters) + len(drainGauges)
				r.Histogram(drainHists[k], drainHelp(drainHists[k], op.help), drainBounds[k])
			}
		}
	}
}

// snapshotBits renders every part of s exactly: which maps are nil, each
// float as its bit pattern, every bucket and help string, then the
// exposition.
func snapshotBits(s Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nil maps: %v %v %v %v\n", s.Counters == nil, s.Gauges == nil, s.Histograms == nil, s.Help == nil)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %016x\n", name, math.Float64bits(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %016x\n", name, math.Float64bits(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram %s %v %v %016x %d\n", name, h.Bounds, h.Counts, math.Float64bits(h.Sum), h.Count)
	}
	for _, name := range sortedKeys(s.Help) {
		fmt.Fprintf(&b, "help %s %q\n", name, s.Help[name])
	}
	b.WriteString(s.Exposition())
	return b.String()
}

// integerBits renders the parts of s whose merge is exact in any
// grouping: the name sets, the help strings, the counters named in exact
// and every histogram's bucket counts and count.
func integerBits(s Snapshot, exact map[string]bool) string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s", name)
		if exact[name] {
			fmt.Fprintf(&b, " %016x", math.Float64bits(s.Counters[name]))
		}
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s\n", name)
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram %s %v %v %d\n", name, h.Bounds, h.Counts, h.Count)
	}
	for _, name := range sortedKeys(s.Help) {
		fmt.Fprintf(&b, "help %s %q\n", name, s.Help[name])
	}
	return b.String()
}

// exactCounters names the counters whose every recorded add is a
// non-negative integer small enough that any sum of them is exact.
func exactCounters(shards []drainShard) map[string]bool {
	exact := map[string]bool{}
	for _, name := range drainCounters {
		exact[name] = true
	}
	for _, sh := range shards {
		for _, ops := range sh.traces {
			for _, op := range ops {
				if op.kind > 1 || op.v <= 0 {
					continue // not a counter add, or one Add drops
				}
				if op.v != math.Trunc(op.v) || op.v > 1<<40 {
					exact[drainCounters[op.name%len(drainCounters)]] = false
				}
			}
		}
	}
	return exact
}

// FuzzRegistryDrain runs a script of registrations and records (NaN and
// ±Inf included) across traces grouped into shards, each shard on one of
// a few workers, two ways: a fresh registry per trace whose Snapshot
// folds into the shard aggregate with MergeInPlace, and one registry per
// worker drained into the shard aggregate after every trace. After the
// in-order shard merge both totals must match bit for bit, maps and
// exposition alike, and Merge must give MergeInPlace's total at both
// levels. A right-grouped Merge of the shard aggregates must agree with
// the left fold on the integer-valued parts: name sets, help, integer
// counters and histogram bucket counts.
func FuzzRegistryDrain(f *testing.F) {
	f.Fuzz(checkDrainScript)
}

// checkDrainScript is FuzzRegistryDrain's body.
func checkDrainScript(t *testing.T, script []byte) {
	shards := parseDrainScript(script)

	var fresh, merged Snapshot
	aggs := make([]Snapshot, len(shards))
	for k, sh := range shards {
		var agg Snapshot
		for _, ops := range sh.traces {
			r := NewRegistry()
			record(r, ops)
			snap := r.Snapshot()
			aggs[k].MergeInPlace(snap)
			agg = agg.Merge(snap)
		}
		if got, want := snapshotBits(agg), snapshotBits(aggs[k]); got != want {
			t.Fatalf("shard %d: Merge fold\n%s\nMergeInPlace fold\n%s", k, got, want)
		}
		fresh.MergeInPlace(aggs[k])
		merged = merged.Merge(agg)
	}

	var workers [drainWorkers]*Registry
	var drained Snapshot
	for _, sh := range shards {
		w := workers[sh.worker]
		if w == nil {
			w = NewRegistry()
			workers[sh.worker] = w
		}
		var agg Snapshot
		for _, ops := range sh.traces {
			record(w, ops)
			w.DrainInto(&agg)
		}
		drained.MergeInPlace(agg)
	}

	want := snapshotBits(fresh)
	if got := snapshotBits(drained); got != want {
		t.Fatalf("drained worker registries\n%s\nfresh registry per trace\n%s", got, want)
	}
	if got := snapshotBits(merged); got != want {
		t.Fatalf("Merge total\n%s\nMergeInPlace total\n%s", got, want)
	}
	for i, w := range workers {
		var left Snapshot
		w.DrainInto(&left)
		for _, v := range left.Counters {
			if v != 0 {
				t.Fatalf("worker %d: a drained counter reads %v", i, v)
			}
		}
		for _, v := range left.Gauges {
			if v != 0 {
				t.Fatalf("worker %d: a drained gauge reads %v", i, v)
			}
		}
		for _, h := range left.Histograms {
			if h.Count != 0 || h.Sum != 0 {
				t.Fatalf("worker %d: a drained histogram holds %d values, sum %v", i, h.Count, h.Sum)
			}
		}
	}

	var right Snapshot
	for k := len(aggs) - 1; k >= 0; k-- {
		right = aggs[k].Merge(right)
	}
	exact := exactCounters(shards)
	if got, want := integerBits(right, exact), integerBits(fresh, exact); got != want {
		t.Fatalf("right-grouped merge\n%s\nleft fold\n%s", got, want)
	}
}

// TestRegistryDrainZeroAllocs: recording into a warm registry and
// draining it into a snapshot that already holds every name allocates
// nothing. Run without -race by make alloc-check.
func TestRegistryDrainZeroAllocs(t *testing.T) {
	r := buildSample()
	var s Snapshot
	r.DrainInto(&s)
	c := r.Counter("cyclops_test_ticks_total", "")
	g := r.Gauge("cyclops_test_workers", "")
	h := r.Histogram("cyclops_test_latency_seconds", "", []float64{0.001, 0.002, 0.005})
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(2)
		h.Observe(0.0015)
		r.DrainInto(&s)
	})
	if allocs != 0 {
		t.Errorf("warm DrainInto: %v allocs per run, want 0", allocs)
	}
	if got := s.Counters["cyclops_test_ticks_total"]; got != 12345+3*101 {
		t.Errorf("drained ticks total %v, want %v", got, 12345+3*101)
	}
}
