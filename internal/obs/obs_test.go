package obs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// buildSample fills a registry with one instrument of each kind, the way
// the instrumented packages do.
func buildSample() *Registry {
	r := NewRegistry()
	r.Counter("cyclops_test_ticks_total", "Simulation ticks executed.").Add(12345)
	r.Counter("cyclops_test_disconnects_total", "Up to down transitions.").Inc()
	r.Gauge("cyclops_test_workers", "Configured worker count.").Set(8)
	h := r.Histogram("cyclops_test_latency_seconds", "Repoint latency.",
		[]float64{0.001, 0.002, 0.005})
	for _, v := range []float64{0.0004, 0.0015, 0.0015, 0.003, 0.05} {
		h.Observe(v)
	}
	return r
}

func TestExpositionGolden(t *testing.T) {
	got := buildSample().Exposition()
	path := filepath.Join("testdata", "exposition.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with go test -run TestExpositionGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestExpositionStable(t *testing.T) {
	// Two registries built identically must render identical bytes — the
	// property the determinism suite leans on.
	a := buildSample().Exposition()
	b := buildSample().Exposition()
	if a != b {
		t.Error("identical registries rendered different expositions")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 9, math.Inf(1), math.Inf(-1), math.NaN()} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// le=1: {0.5, 1, -Inf}; le=2: {1.5, 2}; le=4: {3}; +Inf: {9, +Inf}.
	want := []uint64{3, 2, 1, 2}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8 (NaN dropped)", s.Count)
	}
	if math.IsInf(s.Sum, 0) || math.IsNaN(s.Sum) {
		t.Errorf("sum %v not finite: non-finite observations must not poison it", s.Sum)
	}
}

func TestSnapshotMergeDiff(t *testing.T) {
	a := buildSample().Snapshot()
	b := buildSample().Snapshot()
	m := a.Merge(b)
	if got := m.Counters["cyclops_test_ticks_total"]; got != 2*12345 {
		t.Errorf("merged counter = %v, want %v", got, 2*12345)
	}
	hs := m.Histograms["cyclops_test_latency_seconds"]
	if hs.Count != 10 {
		t.Errorf("merged histogram count = %d, want 10", hs.Count)
	}

	// Diff recovers one contribution: counters and histogram counts come
	// back exactly; gauges deliberately keep the current (merged) value.
	d := m.Diff(a)
	if !reflect.DeepEqual(d.Counters, b.Counters) {
		t.Errorf("diff counters = %v, want %v", d.Counters, b.Counters)
	}
	dh, bh := d.Histograms["cyclops_test_latency_seconds"], b.Histograms["cyclops_test_latency_seconds"]
	if !reflect.DeepEqual(dh.Counts, bh.Counts) || dh.Count != bh.Count {
		t.Errorf("diff histogram = %+v, want counts of %+v", dh, bh)
	}
	if math.Abs(dh.Sum-bh.Sum) > 1e-12 {
		t.Errorf("diff histogram sum = %v, want ≈%v", dh.Sum, bh.Sum)
	}
}

func TestRegistryMergeSnapshot(t *testing.T) {
	r := NewRegistry()
	s := buildSample().Snapshot()
	r.Merge(s)
	r.Merge(s)
	if got := r.Counter("cyclops_test_ticks_total", "").Value(); got != 2*12345 {
		t.Errorf("registry after two merges: counter = %v, want %v", got, 2*12345)
	}
	if got := r.Snapshot().Histograms["cyclops_test_latency_seconds"].Count; got != 10 {
		t.Errorf("registry after two merges: histogram count = %d, want 10", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if got := r.Snapshot(); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	r.Merge(Snapshot{})
}

func TestKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("clash", "")
	r.Gauge("clash", "")
}

func TestBoundsClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a histogram with different bounds must panic")
		}
	}()
	r := NewRegistry()
	r.Histogram("h", "", []float64{1, 2})
	r.Histogram("h", "", []float64{1, 3})
}

func TestConcurrentUse(t *testing.T) {
	// The Default registry receives merges from concurrent runs; this must
	// be race-free (run with -race) and count exactly.
	r := NewRegistry()
	src := buildSample().Snapshot()
	var wg sync.WaitGroup
	const goroutines = 8
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Merge(src)
			r.Counter("cyclops_test_ticks_total", "").Add(5)
			r.Histogram("cyclops_test_latency_seconds", "", []float64{0.001, 0.002, 0.005}).Observe(0.0001)
		}()
	}
	wg.Wait()
	want := float64(goroutines) * (12345 + 5)
	if got := r.Counter("cyclops_test_ticks_total", "").Value(); got != want {
		t.Errorf("concurrent merges: counter = %v, want %v", got, want)
	}
}

// TestCounterAddNMatchesAdd: AddN(v, n) leaves the counter bit for bit
// where n Add(v) calls leave it — including non-integer increments, whose
// float sum depends on the order of the adds — and, like Add, ignores
// non-positive increments (and non-positive n).
func TestCounterAddNMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		start, v float64
		n        int
	}{
		{0, 0.001, 1}, {0, 0.001, 7}, {0.3, 0.001, 1000}, {1e9, 0.1, 33},
		{0, 1, 5}, {2.5, -1, 4}, {2.5, 0, 4}, {2.5, 0.001, 0}, {2.5, 0.001, -3},
	} {
		var add, addN Counter
		add.Add(tc.start)
		addN.Add(tc.start)
		for i := 0; i < tc.n; i++ {
			add.Add(tc.v)
		}
		addN.AddN(tc.v, tc.n)
		if got, want := addN.Value(), add.Value(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("start %v: AddN(%v, %d) = %v, %d Add calls = %v", tc.start, tc.v, tc.n, got, tc.n, want)
		}
	}
	var nilC *Counter
	nilC.AddN(1, 3)
	if nilC.Value() != 0 {
		t.Error("nil counter must read as zero after AddN")
	}
}

// TestSnapshotMergeInPlace folds a sequence of snapshots with disjoint
// and shared names, help strings and float sums that round three ways —
// through the sorted-key reference, through Merge and in place — and the
// folds match field for field and in exposition at every step, while the
// folded snapshots stay unchanged and unaliased.
func TestSnapshotMergeInPlace(t *testing.T) {
	var parts []Snapshot
	for i := 0; i < 6; i++ {
		r := NewRegistry()
		r.Counter("cyclops_test_ticks_total", "Simulation ticks executed.").Add(0.1 * float64(i+1))
		r.Gauge("cyclops_test_level", "").Add(-1.5 * float64(i))
		h := r.Histogram("cyclops_test_latency_seconds", "Repoint latency.", []float64{0.001, 0.002, 0.005})
		h.Observe(0.0007 * float64(i))
		h.Observe(0.1 / 3)
		if i%2 == 1 {
			r.Counter("cyclops_test_odd_total", "Odd parts only.").Inc()
			r.Histogram("cyclops_test_odd_seconds", "", []float64{1}).Observe(float64(i) / 7)
		}
		parts = append(parts, r.Snapshot())
	}
	parts = append(parts, buildSample().Snapshot(), Snapshot{})
	before := make([]string, len(parts))
	for i, p := range parts {
		before[i] = p.Exposition()
	}

	var ref, merged, inPlace Snapshot
	for i, p := range parts {
		ref = mergeReference(ref, p)
		merged = merged.Merge(p)
		inPlace.MergeInPlace(p)
		for _, got := range []Snapshot{merged, inPlace} {
			if !reflect.DeepEqual(got, ref) || got.Exposition() != ref.Exposition() {
				t.Fatalf("after part %d:\n%s\nreference\n%s", i, got.Exposition(), ref.Exposition())
			}
		}
	}
	// A fold into a copy Merge made leaves the copied snapshot alone.
	copied := merged.Merge(Snapshot{})
	copied.MergeInPlace(parts[0])
	if want := mergeReference(merged, parts[0]); !reflect.DeepEqual(copied, want) {
		t.Errorf("fold into a Merge copy differs from the reference")
	}
	if merged.Exposition() != inPlace.Exposition() {
		t.Errorf("folding into a copy wrote the snapshot it was copied from")
	}
	inPlace.Histograms["cyclops_test_latency_seconds"].Counts[0] += 100
	for i, p := range parts {
		if p.Exposition() != before[i] {
			t.Errorf("part %d changed by the in-place fold", i)
		}
	}
}

// mergeReference is Snapshot.Merge as first written, walking every map in
// sorted key order into a fresh snapshot: the oracle for MergeInPlace,
// which Merge is now built on.
func mergeReference(s, o Snapshot) Snapshot {
	out := Snapshot{}
	for _, src := range []map[string]float64{s.Counters, o.Counters} {
		for _, name := range sortedKeys(src) {
			if out.Counters == nil {
				out.Counters = map[string]float64{}
			}
			out.Counters[name] += src[name]
		}
	}
	for _, src := range []map[string]float64{s.Gauges, o.Gauges} {
		for _, name := range sortedKeys(src) {
			if out.Gauges == nil {
				out.Gauges = map[string]float64{}
			}
			out.Gauges[name] += src[name]
		}
	}
	for _, src := range []map[string]HistogramSnapshot{s.Histograms, o.Histograms} {
		for _, name := range sortedKeys(src) {
			hs := src[name]
			if out.Histograms == nil {
				out.Histograms = map[string]HistogramSnapshot{}
			}
			have, ok := out.Histograms[name]
			if !ok {
				out.Histograms[name] = HistogramSnapshot{
					Bounds: append([]float64(nil), hs.Bounds...),
					Counts: append([]uint64(nil), hs.Counts...),
					Sum:    hs.Sum,
					Count:  hs.Count,
				}
				continue
			}
			if !sameBounds(have.Bounds, hs.Bounds) {
				panic(fmt.Sprintf("obs: merge of histogram %q with different bounds", name))
			}
			for i, c := range hs.Counts {
				have.Counts[i] += c
			}
			have.Sum += hs.Sum
			have.Count += hs.Count
			out.Histograms[name] = have
		}
	}
	for _, src := range []map[string]string{o.Help, s.Help} {
		for _, name := range sortedKeys(src) {
			help := src[name]
			if help == "" {
				continue
			}
			if out.Help == nil {
				out.Help = map[string]string{}
			}
			out.Help[name] = help
		}
	}
	return out
}

// TestMergeBoundsClashNamesLowest: merging snapshots whose histograms
// clash on bounds panics, and names the lowest clashing histogram however
// the fold happens to visit the names.
func TestMergeBoundsClashNamesLowest(t *testing.T) {
	build := func(bound float64) Snapshot {
		r := NewRegistry()
		for _, name := range []string{"d_h", "c_h", "b_h", "a_ok", "e_h"} {
			bounds := []float64{1, bound}
			if name == "a_ok" {
				bounds = []float64{1, 2}
			}
			r.Histogram(name, "", bounds).Observe(1)
		}
		return r.Snapshot()
	}
	a, b := build(2), build(3)
	for k := 0; k < 20; k++ {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != `obs: merge of histogram "b_h" with different bounds` {
					t.Fatalf("panic %q, want the lowest clashing histogram b_h", msg)
				}
			}()
			a.Merge(b)
		}()
	}
}
