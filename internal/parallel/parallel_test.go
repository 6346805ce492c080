package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got := Map(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// A float-heavy job: accumulation order inside fn is fixed, so every
	// worker count must reproduce the serial bits exactly.
	job := func(i int) float64 {
		s := 0.0
		for k := 1; k <= 1000; k++ {
			s += 1.0 / float64(i*1000+k)
		}
		return s
	}
	serial := Map(64, 1, job)
	for _, workers := range []int{2, 4, 8} {
		if got := Map(64, workers, job); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: results differ from serial", workers)
		}
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
	// workers <= 0 → default pool; still ordered and complete.
	got := Map(10, 0, func(i int) int { return i })
	for i, v := range got {
		if v != i {
			t.Fatalf("default-workers out[%d] = %d", i, v)
		}
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestMapErrLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4, 8} {
		out, err := MapErr(50, workers, func(i int) (int, error) {
			if i == 17 || i == 31 {
				return 0, fmt.Errorf("%w at %d", sentinel, i)
			}
			return i, nil
		})
		if out != nil {
			t.Errorf("workers=%d: partial results leaked", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Deterministic choice: the lowest failing index, regardless of
		// which goroutine finished first.
		if !strings.Contains(err.Error(), "job 17") {
			t.Errorf("workers=%d: err = %v, want job 17", workers, err)
		}
	}
}

func TestMapErrStopsIssuingAfterFailure(t *testing.T) {
	// After the failure at index 0 is observed, workers must stop claiming
	// new indices. With 2 workers and a failure at the very first index,
	// far fewer than all 10k jobs should run.
	var ran atomic.Int64
	_, err := MapErr(10000, 2, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n > 5000 {
		t.Errorf("%d jobs ran after an index-0 failure — cancellation not working", n)
	}
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(20, 4, func(i int) (string, error) {
		return fmt.Sprintf("r%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("out[%d] = %q", i, v)
		}
	}
}

func TestPanicCapture(t *testing.T) {
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				// Lowest panicking index wins deterministically.
				if pe.Index != 7 {
					t.Errorf("workers=%d: panic index %d, want 7", workers, pe.Index)
				}
				if pe.Value != "kaboom" {
					t.Errorf("workers=%d: panic value %v", workers, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: no stack captured", workers)
				}
				if !strings.Contains(pe.Error(), "job 7") {
					t.Errorf("workers=%d: message %q", workers, pe.Error())
				}
			}()
			Map(40, workers, func(i int) int {
				if i == 7 || i == 23 {
					panic("kaboom")
				}
				return i
			})
		}()
	}
}

func TestPanicBeatsHigherIndexError(t *testing.T) {
	// A panic at index 3 outranks an error at index 9: lowest failing
	// index wins whatever its kind.
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok || pe.Index != 3 {
			t.Fatalf("recovered %v, want *PanicError at index 3", r)
		}
	}()
	_, _ = MapErr(20, 4, func(i int) (int, error) {
		if i == 3 {
			panic("low")
		}
		if i == 9 {
			return 0, errors.New("high")
		}
		return i, nil
	})
	t.Fatal("no panic propagated")
}

func TestMapErrWorkersClampedToJobs(t *testing.T) {
	// More workers than jobs must not deadlock or duplicate work.
	var ran atomic.Int64
	out, err := MapErr(3, 64, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if err != nil || len(out) != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if ran.Load() != 3 {
		t.Errorf("ran %d jobs, want 3", ran.Load())
	}
}

func TestMapCtxMatchesMapErr(t *testing.T) {
	job := func(_ context.Context, i int) (int, error) { return i * 3, nil }
	want, err := MapErr(50, 4, func(i int) (int, error) { return i * 3, nil })
	if err != nil {
		t.Fatalf("MapErr: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := MapCtx(context.Background(), 50, workers, job)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from MapErr", workers)
		}
	}
	// nil ctx is treated as Background.
	if _, err := MapCtx(nil, 10, 2, job); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

func TestMapCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		got, err := MapCtx(ctx, 100, workers, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got != nil {
			t.Errorf("workers=%d: partial results returned", workers)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d jobs ran under a pre-canceled ctx", workers, ran.Load())
		}
	}
}

func TestMapCtxCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := MapCtx(ctx, 10_000, 4, func(_ context.Context, i int) (int, error) {
		if ran.Add(1) == 8 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight jobs drain, but nothing close to the full set runs.
	if n := ran.Load(); n >= 10_000 {
		t.Errorf("cancellation did not stop index claiming: %d jobs ran", n)
	}
}

func TestMapCtxJobErrorBeatsCancellation(t *testing.T) {
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := MapCtx(ctx, 100, 4, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the job error to win over ctx.Err()", err)
	}
	if !strings.Contains(err.Error(), "parallel: job 3") {
		t.Errorf("err = %v, want lowest-failing-index wrapping", err)
	}
}

// TestFold pins the sharded-fold engine both streamed runs (sim.RunCorpus,
// arena.Run) stand on: the merged output is identical at every worker
// count, the window clamps to [start, min(start+limit, n)), a bad window
// runs nothing, a cancel returns its batch's start with exactly the
// shards before it merged, and no more than one batch of outputs is ever
// in flight — the memory bound of a streamed run.
func TestFold(t *testing.T) {
	const n = 100
	type run struct {
		merged []int
		next   int
		err    error
	}
	fold := func(ctx context.Context, start, limit, workers int, onShard func(k int)) run {
		var (
			r                     run
			mu                    sync.Mutex
			started, merged, peak int
		)
		r.next, r.err = Fold(ctx, n, start, limit, workers, func(k int) int {
			mu.Lock()
			started++
			peak = max(peak, started-merged)
			mu.Unlock()
			if onShard != nil {
				onShard(k)
			}
			return k
		}, func(k int) {
			mu.Lock()
			merged++
			mu.Unlock()
			r.merged = append(r.merged, k)
		})
		if bw := batchWidth(workers); peak > bw {
			t.Errorf("workers=%d: %d shard outputs in flight, batch width is %d", workers, peak, bw)
		}
		return r
	}
	span := func(lo, hi int) []int {
		var s []int
		for k := lo; k < hi; k++ {
			s = append(s, k)
		}
		return s
	}

	for _, workers := range []int{1, 2, 8} {
		for _, w := range []struct{ start, limit, next int }{
			{0, 0, n},
			{90, 0, n},
			{10, 25, 35},
			{75, 24, n - 1},
			{95, 25, n},
			{n, 0, n},
		} {
			r := fold(context.Background(), w.start, w.limit, workers, nil)
			if r.err != nil || r.next != w.next || !reflect.DeepEqual(r.merged, span(w.start, w.next)) {
				t.Errorf("workers=%d start=%d limit=%d: next=%d err=%v merged %v, want next=%d and shards [%d, %d) in order",
					workers, w.start, w.limit, r.next, r.err, r.merged, w.next, w.start, w.next)
			}
		}
		for _, bad := range []struct{ start, limit int }{{n + 1, 0}, {-1, 0}, {0, -1}} {
			if r := fold(context.Background(), bad.start, bad.limit, workers, nil); r.err == nil || r.merged != nil {
				t.Errorf("workers=%d start=%d limit=%d: err=%v merged %v, want an error and nothing run",
					workers, bad.start, bad.limit, r.err, r.merged)
			}
		}

		const cancelAt = 40
		ctx, cancel := context.WithCancel(context.Background())
		r := fold(ctx, 0, 0, workers, func(k int) {
			if k == cancelAt {
				cancel()
			}
		})
		cancel()
		bw := batchWidth(workers)
		want := cancelAt / bw * bw
		if !errors.Is(r.err, context.Canceled) || r.next != want || !reflect.DeepEqual(r.merged, span(0, want)) {
			t.Errorf("workers=%d canceled in shard %d: next=%d err=%v merged %v, want next=%d (batch start) and shards [0, %d)",
				workers, cancelAt, r.next, r.err, r.merged, want, want)
		}
	}
}
