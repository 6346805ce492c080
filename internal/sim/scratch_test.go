package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// mixedSource is a ReusableSource whose traces cycle through lengths, so
// one sample buffer serves traces longer and shorter than the last.
type mixedSource struct {
	trace.Source
	lengths []time.Duration
}

func (s mixedSource) AtInto(i int, buf []trace.Sample) trace.Trace {
	return trace.GenerateInto(s.Seed, i, s.lengths[i%len(s.lengths)], s.Origin, buf)
}

func (s mixedSource) At(i int) trace.Trace { return s.AtInto(i, nil) }

// renderShard renders every field of a shard's output, floats as bit
// patterns and the metrics as their exposition.
func renderShard(so shardOut) string {
	var b strings.Builder
	var field func(name string, v reflect.Value)
	field = func(name string, v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeOf(obs.Snapshot{}):
			fmt.Fprintf(&b, "%s:\n%s", name, v.Interface().(obs.Snapshot).Exposition())
		case v.Kind() == reflect.Float64:
			fmt.Fprintf(&b, "%s=%016x ", name, math.Float64bits(v.Float()))
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				field(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		default:
			fmt.Fprintf(&b, "%s=%v ", name, v.Interface())
		}
	}
	field("agg", reflect.ValueOf(so.agg))
	for i, r := range so.perTrace {
		field(fmt.Sprintf("\ntrace%d", i), reflect.ValueOf(r))
	}
	return b.String()
}

// TestShardScratchReuse runs corpus shards through one scratch in both
// orders — long traces then short and the reverse — from a TraceSlice of
// mixed lengths (the plain At path) and from a ReusableSource of mixed
// lengths (the AtInto path), clean and under chaos, and holds every shard
// to a fresh-scratch run, field by field with floats as bit patterns and
// the exposition. A sample buffer or fault-window slice that is not
// truncated before reuse leaks one trace's samples or faults into the
// next.
func TestShardScratchReuse(t *testing.T) {
	origin := geom.V(0.35, 0.25, 1.0)
	long := []time.Duration{9 * time.Second, 7 * time.Second, 8 * time.Second}
	short := []time.Duration{3 * time.Second, 1 * time.Second, 2 * time.Second}
	var slice TraceSlice
	for i := 0; i < 12; i++ {
		lengths := long
		if i >= 6 {
			lengths = short
		}
		slice = append(slice, trace.Generate(11, i, lengths[i%3], origin))
	}
	reusable := mixedSource{trace.Source{Seed: 11, N: 12, Origin: origin}, append(long, short...)}
	for _, src := range []CorpusSource{slice, reusable} {
		for _, chaos := range []*CorpusChaos{nil, testChaos()} {
			opts := runOpts(1, chaos)
			if err := opts.Validate(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%T chaos=%v", src, chaos != nil)
			shards := [][2]int{{0, 6}, {6, 12}}
			fresh := make([]string, len(shards))
			for k, s := range shards {
				so := runShard(src, &opts, s[0], s[1], new(shardScratch))
				if chaos != nil && so.agg.Handovers == 0 {
					t.Fatalf("%s shard %d: no handovers — test is vacuous", name, k)
				}
				fresh[k] = renderShard(so)
			}
			for _, order := range [][]int{{0, 1}, {1, 0}} {
				sc := new(shardScratch)
				for _, k := range order {
					if got := renderShard(runShard(src, &opts, shards[k][0], shards[k][1], sc)); got != fresh[k] {
						t.Errorf("%s: shard %d after shard %d on one scratch:\ngot:  %s\nwant: %s", name, k, order[0], got, fresh[k])
					}
				}
			}
		}
	}
}

// TestShardAllocsFlatInTraceLength: on a warm scratch, a shard allocates
// the same bytes whatever the trace length — the sample buffer and the
// fault windows live in the scratch — clean and under chaos. Each length
// keeps its least of three runs, and up to 1 KB of slack absorbs map
// overflow buckets, which vary with each map's hash seed. Run without
// -race by make alloc-check.
func TestShardAllocsFlatInTraceLength(t *testing.T) {
	for _, chaos := range []*CorpusChaos{nil, testChaos()} {
		bytes := func(length time.Duration) uint64 {
			src := trace.Source{Seed: 11, N: 16, Length: length, Origin: geom.V(0.35, 0.25, 1.0)}
			opts := runOpts(1, chaos)
			opts.KeepPerTrace = false
			if err := opts.Validate(); err != nil {
				t.Fatal(err)
			}
			sc := new(shardScratch)
			runShard(src, &opts, 0, 8, sc)
			least := ^uint64(0)
			for k := 0; k < 3; k++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				runShard(src, &opts, 8, 16, sc)
				runtime.ReadMemStats(&m1)
				least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			}
			return least
		}
		short, long := bytes(10*time.Second), bytes(60*time.Second)
		t.Logf("chaos=%v: bytes per warm 8-trace shard: %d at 10 s, %d at 60 s", chaos != nil, short, long)
		if long > short+1024 {
			t.Errorf("chaos=%v: a warm shard allocates %d bytes at 60 s, %d at 10 s: something grows with the trace", chaos != nil, long, short)
		}
	}
}

// TestShardAllocsFlatInTraceCount: on a warm scratch, the traces of a
// shard cost next to nothing beyond the shard itself — the metrics
// registry is the worker's, drained after each trace — clean and under
// the hybrid chaos arm. A 16-trace shard may allocate at most an 8-trace
// shard's bytes plus 512 B per extra trace, which covers what a trace
// still builds (its ID string, the hybrid policy controller and the
// instrument structs that policy.NewMetrics and fault.NewOutageMetrics
// return), while a registry built and snapshotted per trace costs
// ≈2.9 KB on the clean path and ≈6.3 KB under the hybrid arm. Each shard
// width keeps its least of three runs. Run without -race by make
// alloc-check.
func TestShardAllocsFlatInTraceCount(t *testing.T) {
	hybrid := testChaos()
	hybrid.Hybrid = &HybridSlotParams{}
	for _, chaos := range []*CorpusChaos{nil, hybrid} {
		src := trace.Source{Seed: 11, N: 32, Length: 10 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
		opts := runOpts(1, chaos)
		opts.KeepPerTrace = false
		if err := opts.Validate(); err != nil {
			t.Fatal(err)
		}
		sc := new(shardScratch)
		runShard(src, &opts, 0, 16, sc)
		bytes := func(n int) uint64 {
			least := ^uint64(0)
			for k := 0; k < 3; k++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				runShard(src, &opts, 16, 16+n, sc)
				runtime.ReadMemStats(&m1)
				least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			}
			return least
		}
		eight, sixteen := bytes(8), bytes(16)
		t.Logf("chaos=%v: bytes per warm shard: %d for 8 traces, %d for 16", chaos != nil, eight, sixteen)
		if sixteen > eight+8*512 {
			t.Errorf("chaos=%v: a warm 16-trace shard allocates %d bytes, an 8-trace one %d: %d bytes per extra trace, want at most 512",
				chaos != nil, sixteen, eight, (sixteen-eight)/8)
		}
	}
}
