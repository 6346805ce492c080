package obs

import (
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
