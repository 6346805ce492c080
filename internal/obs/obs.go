// Package obs is the repo's dependency-free, deterministic observability
// layer: counters, gauges, and fixed-bucket histograms registered in a
// Registry, exposed three ways —
//
//   - a stable, sorted text exposition in Prometheus format (Exposition),
//   - cheap value-type Snapshots with Diff/Merge, embedded in experiment
//     results (core.RunResult.Metrics, sim.CorpusResult.Metrics),
//   - a process-wide Default registry the cyclops-bench / cyclops-sim
//     -metrics flags dump.
//
// # Determinism contract
//
// The parallel experiment engine (internal/parallel) promises bit-identical
// results at any worker count, and metrics must not break that. The rules:
//
//   - every parallel shard records into its own Registry (sim.RunCorpus
//     and arena.Run create one per trace or cell) — instruments are never
//     shared across shards;
//   - per-shard Snapshots are merged serially, in shard-index order, by
//     parallel.Fold's merge step, never inside the fan-out. Counter increments are integer-valued in practice
//     (exact in float64 far beyond any realistic count), and histogram
//     sums merge in a fixed order, so the merged Snapshot — and its text
//     exposition — is byte-identical for workers 1, 4, 8, or the default
//     pool;
//   - reductions never happen inside worker goroutines.
//
// All instruments and the Registry are safe for concurrent use (the
// process-wide Default registry receives merges from concurrent runs), and
// all methods are nil-receiver-safe so uninstrumented code paths pay one
// predictable branch and nothing else.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cyclops/internal/xmath"
)

// Counter is a monotonically increasing metric. In this codebase counters
// carry integer-valued increments (ticks, packets, iterations), which keeps
// float64 accumulation exact and therefore order-independent.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative v is ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// AddN is n successive Add(v) calls under one lock: xmath.AddN returns
// the n in-order float adds' total bit for bit, so it is identical to the
// calls it replaces.
func (c *Counter) AddN(v float64, n int) {
	if c == nil || v <= 0 || n <= 0 {
		return
	}
	c.mu.Lock()
	c.v = xmath.AddN(c.v, v, n)
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-current-value metric. Gauges merge additively across
// snapshots, so use them for quantities where a sum is meaningful (e.g.
// per-run totals); ratios belong in a pair of counters.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket histogram: Bounds are strictly increasing
// upper bounds (le), with an implicit +Inf bucket at the end. Buckets are
// fixed at registration so per-worker histograms always merge exactly.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value. Non-finite values are clamped to the extreme
// buckets and excluded from the sum (a ±Inf sum would poison every later
// merge).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	switch {
	case math.IsNaN(v):
		// drop: no bucket is meaningful
	case math.IsInf(v, 1):
		h.counts[len(h.counts)-1]++
		h.count++
	case math.IsInf(v, -1):
		h.counts[0]++
		h.count++
	default:
		i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v → its le bucket
		h.counts[i]++
		h.sum += v
		h.count++
	}
	h.mu.Unlock()
}

// Registry holds named instruments. The zero registry is not usable; call
// NewRegistry. All methods are safe on a nil *Registry and return nil
// instruments, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// defaultRegistry is the process-wide registry behind Default().
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Per-run registries publish
// their snapshots here (via Merge) so the -metrics flags have one place to
// dump; its float sums may differ in the last bit across scheduling orders,
// which is why determinism guarantees are stated on per-run Snapshots, not
// on Default.
func Default() *Registry { return defaultRegistry }

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) setHelp(name, help string) {
	if help != "" && r.help[name] == "" {
		r.help[name] = help
	}
}

// otherKind returns the instrument kind already holding name when it is
// not the wanted kind, or "" when the name is free (or already the right
// kind). Call with r.mu held.
func (r *Registry) otherKind(name, want string) string {
	if _, ok := r.counters[name]; ok && want != "counter" {
		return "counter"
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		return "gauge"
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		return "histogram"
	}
	return ""
}

// mustRegister validates a registration under r.mu. Registration happens
// at construction time with literal names (cyclops-vet's metrics rule
// enforces that), so a bad name or a kind clash is a programmer error:
// failing fast beats silently corrupting every later exposition.
func (r *Registry) mustRegister(name, kind string) {
	if !validName(name) {
		//cyclops:panic-ok registration-time contract violation with a literal name is a programmer error
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if other := r.otherKind(name, kind); other != "" {
		//cyclops:panic-ok kind clash at registration is a programmer error, not a runtime condition
		panic(fmt.Sprintf("obs: %q already registered as a %s", name, other))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mustRegister(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.setHelp(name, help)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mustRegister(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.setHelp(name, help)
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given strictly increasing upper bounds. Re-registration with different
// bounds panics — fixed buckets are what make merges exact.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			//cyclops:panic-ok bounds are compile-time literals; a bad table is a programmer error
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mustRegister(name, "histogram")
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	} else if !sameBounds(h.bounds, bounds) {
		//cyclops:panic-ok fixed buckets are the merge-exactness invariant; re-registration with new bounds is a programmer error
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	r.setHelp(name, help)
	return h
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HistogramSnapshot is a histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Snapshot is a frozen, value-typed view of a registry — cheap to embed in
// experiment results and safe to compare, diff, and merge. The zero
// Snapshot is empty and valid.
type Snapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
	// Help carries the registered help strings so a Snapshot's
	// exposition keeps its # HELP lines.
	Help map[string]string
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	for _, name := range sortedKeys(r.counters) {
		if s.Counters == nil {
			s.Counters = map[string]float64{}
		}
		s.Counters[name] = r.counters[name].Value()
	}
	for _, name := range sortedKeys(r.gauges) {
		if s.Gauges == nil {
			s.Gauges = map[string]float64{}
		}
		s.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range sortedKeys(r.hists) {
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		h := r.hists[name]
		h.mu.Lock()
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.count,
		}
		h.mu.Unlock()
	}
	for _, name := range sortedKeys(r.help) {
		if s.Help == nil {
			s.Help = map[string]string{}
		}
		s.Help[name] = r.help[name]
	}
	return s
}

// Merge folds a snapshot into the live registry: counters and histogram
// buckets add, gauges add. Histograms are created with the snapshot's
// bounds when absent and must match bounds when present.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for _, name := range sortedKeys(s.Counters) {
		r.Counter(name, s.Help[name]).Add(s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		r.Gauge(name, s.Help[name]).Add(s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		h := r.Histogram(name, s.Help[name], hs.Bounds)
		h.mu.Lock()
		for i, c := range hs.Counts {
			h.counts[i] += c
		}
		h.sum += hs.Sum
		h.count += hs.Count
		h.mu.Unlock()
	}
}

// Exposition renders the registry's current state; see Snapshot.Exposition.
func (r *Registry) Exposition() string { return r.Snapshot().Exposition() }

// Merge returns the union of two snapshots: counters and histogram buckets
// add, gauges add, help strings union (s wins on conflict). Merging
// serially in a fixed order yields bit-identical results; histograms with
// mismatched bounds panic (instrumentation bug). The result owns fresh
// maps: neither s nor o is written.
//
//cyclops:keep perfbench folds its replayed aggregates' metrics with it
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var out Snapshot
	out.MergeInPlace(s)
	out.MergeInPlace(o)
	return out
}

// MergeInPlace folds o into s and leaves s equal to s.Merge(o), bit for
// bit (the same adds, in the same order, per name), without building
// fresh maps. It writes s's maps and histogram count slices, so s must
// own them: the zero Snapshot, or one an earlier Merge or MergeInPlace
// built that nothing else holds. To fold into a snapshot someone else
// still reads, Merge once first; that copies. o is only read.
func (s *Snapshot) MergeInPlace(o Snapshot) {
	//cyclops:deterministic-ok each name's add reads and writes only that name, so visiting order cannot reach the result
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]float64, len(o.Counters))
		}
		s.Counters[name] += v
	}
	//cyclops:deterministic-ok each name's add reads and writes only that name, so visiting order cannot reach the result
	for name, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(o.Gauges))
		}
		s.Gauges[name] += v
	}
	//cyclops:deterministic-ok each name's fold reads and writes only that name, and a bounds clash names the lowest clashing histogram, so visiting order cannot reach the result
	for name, hs := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(o.Histograms))
		}
		have, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistogramSnapshot{
				Bounds: append([]float64(nil), hs.Bounds...),
				Counts: append([]uint64(nil), hs.Counts...),
				Sum:    hs.Sum,
				Count:  hs.Count,
			}
			continue
		}
		if !sameBounds(have.Bounds, hs.Bounds) {
			//cyclops:panic-ok bounds mismatch across merged snapshots is an instrumentation bug, not a runtime condition
			panic(fmt.Sprintf("obs: merge of histogram %q with different bounds", boundsClash(s.Histograms, o.Histograms)))
		}
		for i, c := range hs.Counts {
			have.Counts[i] += c
		}
		have.Sum += hs.Sum
		have.Count += hs.Count
		s.Histograms[name] = have
	}
	//cyclops:deterministic-ok each name's help is decided by that name alone (s's wins), so visiting order cannot reach the result
	for name, help := range o.Help {
		if help == "" || s.Help[name] != "" {
			continue
		}
		if s.Help == nil {
			s.Help = make(map[string]string, len(o.Help))
		}
		s.Help[name] = help
	}
}

// boundsClash returns the lowest name whose histogram has different
// bounds in a and b, so a failed merge panics with the same message
// whatever order it visited the names in.
func boundsClash(a, b map[string]HistogramSnapshot) string {
	for _, name := range sortedKeys(b) {
		if h, ok := a[name]; ok && !sameBounds(h.Bounds, b[name].Bounds) {
			return name
		}
	}
	return ""
}

// Diff returns s minus prev: counters and histogram buckets subtract
// (clamped at zero), gauges keep s's current value. Use it to isolate what
// one run contributed to a shared registry.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{}
	for _, name := range sortedKeys(s.Counters) {
		if out.Counters == nil {
			out.Counters = map[string]float64{}
		}
		d := s.Counters[name] - prev.Counters[name]
		if d < 0 {
			d = 0
		}
		out.Counters[name] = d
	}
	for _, name := range sortedKeys(s.Gauges) {
		if out.Gauges == nil {
			out.Gauges = map[string]float64{}
		}
		out.Gauges[name] = s.Gauges[name]
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		if out.Histograms == nil {
			out.Histograms = map[string]HistogramSnapshot{}
		}
		d := HistogramSnapshot{
			Bounds: append([]float64(nil), hs.Bounds...),
			Counts: append([]uint64(nil), hs.Counts...),
			Sum:    hs.Sum,
			Count:  hs.Count,
		}
		if ps, ok := prev.Histograms[name]; ok && sameBounds(ps.Bounds, hs.Bounds) {
			for i := range d.Counts {
				if d.Counts[i] >= ps.Counts[i] {
					d.Counts[i] -= ps.Counts[i]
				} else {
					d.Counts[i] = 0
				}
			}
			d.Sum -= ps.Sum
			if d.Count >= ps.Count {
				d.Count -= ps.Count
			} else {
				d.Count = 0
			}
		}
		out.Histograms[name] = d
	}
	for _, name := range sortedKeys(s.Help) {
		if out.Help == nil {
			out.Help = map[string]string{}
		}
		out.Help[name] = s.Help[name]
	}
	return out
}

// Exposition renders the snapshot in Prometheus text exposition format,
// families sorted by name, values formatted with the shortest exact
// representation — the same bytes for the same snapshot, always.
func (s Snapshot) Exposition() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	kind := map[string]string{}
	for _, name := range sortedKeys(s.Counters) {
		names = append(names, name)
		kind[name] = "counter"
	}
	for _, name := range sortedKeys(s.Gauges) {
		names = append(names, name)
		kind[name] = "gauge"
	}
	for _, name := range sortedKeys(s.Histograms) {
		names = append(names, name)
		kind[name] = "histogram"
	}
	sort.Strings(names)
	for _, name := range names {
		if help := s.Help[name]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind[name])
		switch kind[name] {
		case "counter":
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(s.Counters[name]))
		case "gauge":
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(s.Gauges[name]))
		case "histogram":
			hs := s.Histograms[name]
			var cum uint64
			for i, bound := range hs.Bounds {
				cum += hs.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, fmtFloat(bound), cum)
			}
			if len(hs.Counts) > 0 {
				cum += hs.Counts[len(hs.Counts)-1]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", name, fmtFloat(hs.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", name, hs.Count)
		}
	}
	return b.String()
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeys is the sanctioned map iteration in this package: every walk
// over a metrics map whose order could reach a merge, diff, or exposition
// goes through it, so iteration order is erased first. MergeInPlace's
// per-name folds, which no visiting order can change, are the annotated
// exception.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//cyclops:deterministic-ok iteration order is erased by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
