// Package parallel is the experiment engine's deterministic fan-out
// primitive. The evaluation's hot paths are embarrassingly parallel —
// 500 independent trace simulations (§5.4), 500 independent seeded trace
// generations, the multi-program motion sweeps of Fig 13/15 — and Map /
// MapErr run such indexed job sets on a fixed-size worker pool while
// keeping the output *bit-identical* to the serial loop.
//
// # Determinism contract
//
// For a pure fn (its result depends only on the index), Map and MapErr
// return the same values for every worker count, including 1:
//
//   - results are written into a preallocated slice at their own index —
//     collection order never depends on scheduling;
//   - reductions (min/max/mean and friends) are the caller's job and must
//     happen after Map returns, over the ordered slice, never inside fn —
//     or, for a streamed run, in Fold's serial merge, shard by shard;
//   - MapErr reports the error of the lowest failing index, not the
//     temporally first failure. Indices are claimed in increasing order,
//     so every index below a failing one is guaranteed to have run, making
//     the chosen error independent of goroutine interleaving;
//   - a panicking job does not tear down the process from a worker
//     goroutine: the panic is captured with its worker stack and re-raised
//     in the calling goroutine (again lowest-index-wins) once all in-flight
//     jobs have drained.
//
// Workers ≤ 0 means "use the process default" (SetDefaultWorkers, falling
// back to GOMAXPROCS); workers == 1 runs inline on the calling goroutine
// with no pool at all — the serial reference path.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide fan-out width used when a call site
// passes workers <= 0. Zero means runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used by
// Map/MapErr when a call site passes workers <= 0. n <= 0 restores the
// GOMAXPROCS default. The cyclops-bench -parallel flag routes here.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the effective default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered from a worker goroutine. Map/MapErr
// re-panic with *PanicError in the calling goroutine so a crashing job
// behaves like a crashing serial loop, but with the job index and the
// worker's stack attached.
type PanicError struct {
	// Index is the job index whose fn panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Map applies fn to every index in [0, n) on a pool of the given size and
// returns the results in index order. workers <= 0 uses DefaultWorkers();
// the output is identical for any worker count. A panic in fn is re-raised
// in the caller as a *PanicError.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out, err := MapErr(n, workers, func(i int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		// Unreachable: the wrapped fn never returns an error and panics
		// are re-raised inside MapErr.
		//cyclops:panic-ok unreachable: the wrapped fn never errors and worker panics re-raise inside MapErr
		panic(err)
	}
	return out
}

// MapErr is Map for fallible jobs: it applies fn to every index in [0, n)
// and returns the ordered results, or the error of the lowest failing
// index. Once any job fails, no further indices are started (the in-flight
// ones drain), and the partial results are discarded — callers never see a
// half-filled slice. A panic in fn is re-raised in the caller as a
// *PanicError.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return mapWorkers(n, workers, func(_, i int) (T, error) {
		return fn(i)
	})
}

// mapWorkers is MapErr that also tells each job which worker runs it: w
// lies in [0, min(workers, n)), and each w is one goroutine (the caller's,
// on the serial path), so state indexed by w is never touched by two jobs
// at once.
func mapWorkers[T any](n, workers int, fn func(w, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)

	if workers == 1 {
		// Serial reference path: inline on the calling goroutine.
		for i := 0; i < n; i++ {
			v, err := fn(0, i)
			if err != nil {
				return nil, fmt.Errorf("parallel: job %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next       atomic.Int64 // next index to claim
		failed     atomic.Bool  // stop claiming once any job fails
		mu         sync.Mutex   // guards firstIdx/firstErr/firstPanic
		firstIdx   = n          // lowest failing index seen so far
		firstErr   error
		firstPanic *PanicError
	)
	record := func(i int, err error, pv *PanicError) {
		failed.Store(true)
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr, firstPanic = i, err, pv
		}
		mu.Unlock()
	}
	runOne := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				record(i, nil, &PanicError{Index: i, Value: r, Stack: buf})
			}
		}()
		v, err := fn(w, i)
		if err != nil {
			record(i, err, nil)
			return
		}
		out[i] = v
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(w, i)
			}
		}()
	}
	wg.Wait()

	if firstPanic != nil {
		//cyclops:panic-ok re-raises the first worker panic on the caller's goroutine, preserving panic semantics across the fan-out
		panic(firstPanic)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("parallel: job %d: %w", firstIdx, firstErr)
	}
	return out, nil
}

// Fold is the sharded-fold engine behind every streamed run (the sim
// corpus, the arena venue): it runs the n shards of a job and merges
// their outputs serially in shard order. Shards fan out through the
// worker pool one batch of batchWidth(workers) at a time, so at most that
// many outputs are ever in flight, and the merge order never depends on
// scheduling, so the fold is bit-identical for every worker count. shard
// must be pure in k; merge runs on the calling goroutine. A panic in
// shard is re-raised in the caller as a *PanicError.
//
// Each worker owns one scratch value for the whole call: newScratch runs
// at most once per worker, the first time that worker takes a shard, and
// every shard the worker runs afterwards, in any batch, gets the same
// value. It is storage a shard reuses (buffers, not state): no two shards
// hold it at once, and shard's output must not depend on what an earlier
// shard left in it, nor alias it. A streamed run's memory bound is
// therefore one batch of outputs plus one scratch per worker. The scratch
// is not a sync.Pool: the collector empties a pool, so its reuse, and the
// run's allocation, would vary with GC timing.
func Fold[S, T any](n, workers int, newScratch func() S, shard func(s S, k int) T, merge func(T)) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	batch := batchWidth(workers)
	// mapWorkers numbers its workers below min(workers, batch), and
	// batchWidth is never below workers.
	scratch := make([]S, workers)
	made := make([]bool, workers)
	for lo := 0; lo < n; lo += batch {
		//cyclops:discard-ok the job never returns an error and mapWorkers re-raises a panic, so the error is always nil
		outs, _ := mapWorkers(min(batch, n-lo), workers, func(w, k int) (T, error) {
			if !made[w] {
				scratch[w], made[w] = newScratch(), true
			}
			return shard(scratch[w], lo+k), nil
		})
		for _, o := range outs {
			merge(o)
		}
	}
}

// batchWidth is Fold's one batch rule: four shards per worker, at least
// 16. The width bounds in-flight outputs and sets how often the pool
// drains; it never touches the merge order, so deriving it from the
// worker count keeps the determinism contract.
func batchWidth(workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return max(16, 4*workers)
}
