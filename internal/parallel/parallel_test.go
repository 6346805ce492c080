package parallel

import (
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

// TestFold pins the sharded-fold engine both streamed runs (sim.RunCorpus,
// arena.Run) stand on, at every worker count and at shard counts around
// the batch width: every shard is merged once, in shard order; no more
// than one batch of outputs is ever in flight — the memory bound of a
// streamed run; and each worker makes at most one scratch, lazily, reused
// by every shard it runs — so no scratch is made when no shard runs.
func TestFold(t *testing.T) {
	type scratch struct{ shards int }
	for _, workers := range []int{1, 2, 8} {
		bw := batchWidth(workers)
		for _, n := range []int{0, 1, 15, 16, 17, 100} {
			var (
				mu                    sync.Mutex
				started, merged, peak int
				order                 []int
				scratches             = map[*scratch]bool{}
				made                  atomic.Int64
			)
			Fold(n, workers, func() *scratch {
				made.Add(1)
				return new(scratch)
			}, func(s *scratch, k int) int {
				s.shards++
				mu.Lock()
				scratches[s] = true
				started++
				peak = max(peak, started-merged)
				mu.Unlock()
				return k
			}, func(k int) {
				mu.Lock()
				merged++
				mu.Unlock()
				order = append(order, k)
			})
			if len(order) != n {
				t.Errorf("workers=%d n=%d: merged %d shards", workers, n, len(order))
			}
			for i, k := range order {
				if k != i {
					t.Errorf("workers=%d n=%d: merge %d got shard %d, want shard order", workers, n, i, k)
					break
				}
			}
			if peak > bw {
				t.Errorf("workers=%d n=%d: %d shard outputs in flight, batch width is %d", workers, n, peak, bw)
			}
			ran := 0
			for s := range scratches {
				ran += s.shards
			}
			if m := made.Load(); m != int64(len(scratches)) || m > int64(min(workers, n)) || ran != n {
				t.Errorf("workers=%d n=%d: %d scratches made, %d used for %d shards, want each made one used and at most %d covering all %d",
					workers, n, m, len(scratches), ran, min(workers, n), n)
			}
		}
	}
}

// TestFoldScratchPerWorker pins the other half of Fold's scratch
// contract: no scratch is ever held by two shards at once.
func TestFoldScratchPerWorker(t *testing.T) {
	type scratch struct{ busy atomic.Bool }
	for _, workers := range []int{1, 2, 8} {
		Fold(100, workers, func() *scratch { return new(scratch) }, func(s *scratch, k int) int {
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("workers=%d shard %d: scratch held by another shard", workers, k)
			}
			runtime.Gosched()
			s.busy.Store(false)
			return k
		}, func(int) {})
	}
}
