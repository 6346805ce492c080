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
	"context"
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
	return MapCtx(context.Background(), n, workers, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is MapErr with cooperative cancellation: no new index is claimed
// once ctx is done (in-flight jobs drain), and fn receives ctx so
// long-running jobs can stop early themselves. The determinism contract is
// unchanged — with a ctx that never cancels, MapCtx returns exactly what
// MapErr would for every worker count. On early stop the partial results
// are discarded and the error precedence is: a job panic (re-raised),
// then the lowest failing job index, then ctx.Err() verbatim (so callers
// can match context.Canceled / DeadlineExceeded with errors.Is).
func MapCtx[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
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
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
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
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				record(i, nil, &PanicError{Index: i, Value: r, Stack: buf})
			}
		}()
		v, err := fn(ctx, i)
		if err != nil {
			record(i, err, nil)
			return
		}
		out[i] = v
	}

	done := ctx.Done()
	stopped := func() bool {
		if failed.Load() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stopped() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(i)
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fold is the sharded-fold engine behind every streamed run (the sim
// corpus, the arena venue): it runs shards [start, end) of an n-shard job,
// where end is n, or start+limit when limit > 0, and merges their outputs
// serially in shard order. Shards fan out through MapCtx one batch of
// batchWidth(workers) at a time, so at most that many outputs are ever in
// flight — the memory bound of a streamed run — and the merge order never
// depends on scheduling, so the fold is bit-identical for every worker
// count. shard must be pure in k; merge runs on the calling goroutine.
//
// next is the first shard not merged: end on success; on cancellation the
// failed batch's start, alongside ctx's error, with exactly the shards
// [start, next) merged — a resumable position. A start outside [0, n] (a
// checkpoint from a different job) or a negative limit is an error, and
// nothing runs.
func Fold[T any](ctx context.Context, n, start, limit, workers int, shard func(k int) T, merge func(T)) (next int, err error) {
	end, err := Window(n, start, limit)
	if err != nil {
		return start, err
	}
	batch := batchWidth(workers)
	for lo := start; lo < end; lo += batch {
		outs, err := MapCtx(ctx, min(batch, end-lo), workers, func(_ context.Context, k int) (T, error) {
			return shard(lo + k), nil
		})
		if err != nil {
			return lo, err
		}
		for _, o := range outs {
			merge(o)
		}
	}
	return end, nil
}

// Window returns the end of Fold's window: n, or start+limit when limit >
// 0 caps it sooner. It rejects a start outside [0, n] and a negative limit.
func Window(n, start, limit int) (end int, err error) {
	if start < 0 || start > n {
		return 0, fmt.Errorf("parallel: fold resumes at shard %d, outside [0, %d]", start, n)
	}
	if limit < 0 {
		return 0, fmt.Errorf("parallel: negative fold limit %d", limit)
	}
	if limit > 0 && start+limit < n {
		return start + limit, nil
	}
	return n, nil
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
