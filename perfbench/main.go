// Command perfbench is the repository benchmark. One invocation runs one
// workload at one seed and prints every metric by name with its unit; the
// last line of standard output is the JSON result
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones, timed on untraced
// passes through each layer's public entry point (sim.RunCorpus,
// arena.Run, System.Calibrate/Run). With -trace 1 they are the per-layer
// ones, taken from a serial replay of the same pass that times every call
// into a layer from this package. Every pass is checked (see checks.go);
// a failed check prints FAIL to standard error, marks the result
// incorrect and exits 1. README.md documents workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"cyclops/internal/trace"
)

// timedWorkers is the worker count of every timed pass: serial, so no
// timing depends on how many cores the host has.
const timedWorkers = 1

// defaultSeed is the seed used while the benchmark was written; heldOutSeed
// is reserved for confirming a later performance claim on inputs nobody
// tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 20221
)

// size fixes how much work one pass does: fullSize is the benchmark,
// tests run toy sizes through the same code.
type size struct {
	traces     int           // corpus traces
	traceLen   time.Duration // corpus trace and arena session length
	users      int           // arena headsets
	density    float64       // arena users per square meter
	usersPerTX int           // arena TX capacity
	program    time.Duration // closed-loop motion program length
}

var fullSize = size{
	traces:     trace.DatasetTraces,
	traceLen:   time.Minute,
	users:      128,
	density:    2,
	usersPerTX: 8,
	program:    time.Minute,
}

// summary is what one pass produced, reduced to the values any two passes
// of the same program on the same seed must agree on. Implementations are
// plain structs compared field by field (see sameSummary).
type summary interface {
	// check validates the pass's own outputs at the given size.
	check(sz size) error
	// modelled returns the deterministic end-to-end quantities.
	modelled() modelled
	// counts returns the exact per-layer counts the summary carries.
	counts() map[string]float64
}

// modelled holds a pass's deterministic end-to-end quantities.
type modelled struct {
	work            float64 // traces, users or motion programs completed
	simSeconds      float64 // simulated time covered
	availabilityPct float64
	goodputGbps     float64
}

// pass runs one untraced pass over prepared inputs at the given worker
// count. A pass may be called once only: the closed loop's system state
// advances with every Run.
type pass func(workers int) (summary, error)

// workload is one set of inputs and the three ways the benchmark drives
// it.
type workload struct {
	name string
	// setup builds one pass's inputs; its wall time is setup_s.
	setup func(sz size, seed int64) (pass, error)
	// replay runs the same pass serially through the benchmark's own
	// calls into each layer, timing them into sp. The map carries counts
	// only the replay observes.
	replay func(sz size, seed int64, sp *spans) (summary, map[string]float64, error)
	// parallel reports whether the pass takes a worker count, so that one
	// untimed pass at Workers = nproc can be compared with the serial one.
	parallel bool
}

var workloads = []workload{corpusClean, corpusChaos, arenaWorkload, closedLoop}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line. notes are printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation and prints why.
func (r *result) fail(stderr io.Writer, err error) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(stderr, "FAIL: %v\n", err)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: corpus-clean, corpus-chaos, arena or closed-loop")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "timed passes repeat until this many seconds have been measured (at least two passes)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}

	printEnv(stdout, w.name, *seed)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res = tracedRun(w, fullSize, *seed, budget, stderr)
	} else {
		res = measure(w, fullSize, *seed, budget, stderr)
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "FAIL: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printEnv records what the numbers were measured on. The benchmark never
// computes a parallel speedup: timed passes are serial.
func printEnv(w io.Writer, name string, seed int64) {
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d workers=%d nproc=%d gomaxprocs=%d go=%s commit=%s modified=%s\n",
		name, seed, timedWorkers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, modified)
}

// measure runs timed untraced passes until budget is spent (at least two)
// and reports the end-to-end metrics. Where the workload takes workers, an
// untimed pass at Workers = nproc runs first: it warms the heap, and every
// serial pass must reproduce it bit for bit. Otherwise every pass must
// reproduce the first.
func measure(w workload, sz size, seed int64, budget time.Duration, stderr io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var first summary
	firstName := "the first pass"
	if w.parallel {
		res.Attempted++
		p, err := w.setup(sz, seed)
		if err == nil {
			first, err = p(runtime.NumCPU())
		}
		if err == nil {
			err = first.check(sz)
		}
		if err != nil {
			res.fail(stderr, fmt.Errorf("%s pass at %d workers: %w", w.name, runtime.NumCPU(), err))
			return res
		}
		firstName = fmt.Sprintf("the pass at %d workers", runtime.NumCPU())
	}
	var setups, walls, cpus, allocs []float64
	var timed time.Duration
	cheap := false
	for i := 1; i <= 2 || timed < budget; i++ {
		res.Attempted++
		p, setup, err := timedSetup(w, sz, seed)
		if i == 1 {
			cheap = setup < cheapSetup
		}
		if err == nil && cheap {
			var blocks []float64
			blocks, err = timeSetupBlocks(w, sz, seed)
			setups = append(setups, blocks...)
		} else {
			setups = append(setups, setup)
		}
		if err != nil {
			res.fail(stderr, fmt.Errorf("%s setup: %w", w.name, err))
			return res
		}
		runtime.GC()
		a0 := totalAlloc()
		c0 := cpuTime()
		t0 := time.Now()
		s, err := p(timedWorkers)
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		alloc := totalAlloc() - a0
		if err == nil {
			err = s.check(sz)
		}
		if err == nil && first != nil {
			err = sameSummary(firstName, first, s)
		}
		if err != nil {
			res.fail(stderr, fmt.Errorf("%s serial pass %d: %w", w.name, i, err))
			return res
		}
		if first == nil {
			first = s
		}
		timed += wall
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		allocs = append(allocs, float64(alloc))
	}
	res.note("%s: %d timed passes, wall s %.4g, CPU s %.4g", w.name, len(walls), walls, cpus)
	m := first.modelled()
	cpu := median(cpus)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["traces_per_s"] = metric{m.work / cpu, "1/s"}
	res.Metrics["realtime_x"] = metric{m.simSeconds / cpu, "x"}
	res.Metrics["alloc_mb"] = metric{median(allocs) / 1e6, "MB"}
	res.Metrics["availability_pct"] = metric{m.availabilityPct, "%"}
	res.Metrics["goodput_gbps"] = metric{m.goodputGbps, "Gbps"}
	if w.name == corpusClean.name {
		res.note("corpus-clean availability %.3f %% vs paper %.1f %% (error %+.3f pts; paper per-trace range %.2f-%.2f %%)",
			m.availabilityPct, paperMeanPct, m.availabilityPct-paperMeanPct, paperMinPct, paperMaxPct)
	}
	return res
}

// A set-up faster than cheapSetup is too short to time alone: it is timed
// in setupBlocks blocks of setupBlock repeats at every timed pass, so that
// its median spans the whole run rather than one moment of a noisy host.
// A set-up that costs seconds (closed-loop calibration) is timed once per
// pass.
const (
	cheapSetup  = 1e-3 // seconds
	setupBlocks = 9
	setupBlock  = 1000
)

// timeSetupBlocks returns the time per set-up of each of setupBlocks
// blocks.
func timeSetupBlocks(w workload, sz size, seed int64) ([]float64, error) {
	xs := make([]float64, 0, setupBlocks)
	for b := 0; b < setupBlocks; b++ {
		// A block allocates less than the smallest heap goal, so no
		// collection starts inside it.
		runtime.GC()
		c0 := cpuTime()
		for k := 0; k < setupBlock; k++ {
			if _, err := w.setup(sz, seed); err != nil {
				return nil, err
			}
		}
		xs = append(xs, (cpuTime()-c0).Seconds()/setupBlock)
	}
	return xs, nil
}

// timedSetup builds one pass's inputs and returns its CPU time in seconds.
func timedSetup(w workload, sz size, seed int64) (pass, float64, error) {
	runtime.GC()
	c0 := cpuTime()
	p, err := w.setup(sz, seed)
	return p, (cpuTime() - c0).Seconds(), err
}

// cpuTime is the CPU time the process has used, user and system, on all
// threads. Host-time metrics use it rather than wall time: on a shared VM
// wall time also counts the time the hypervisor runs other guests, which
// comes and goes over minutes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Linux getrusage fails only on a bad argument.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedRun alternates untraced passes with traced replays of the same
// inputs until budget is spent (at least one pair), requires every replay
// to reproduce the untraced aggregates, and reports the per-layer metrics:
// span shares over all replays, and the overhead of the median replay
// over the median untraced pass.
func tracedRun(w workload, sz size, seed int64, budget time.Duration, stderr io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var sp spans
	var plainWalls, tracedWalls []float64
	var tracedTotal time.Duration
	var replayed summary
	var extra map[string]float64
	for start := time.Now(); len(plainWalls) == 0 || time.Since(start) < budget; {
		res.Attempted++
		runtime.GC()
		t0 := time.Now()
		p, err := w.setup(sz, seed)
		var plain summary
		if err == nil {
			plain, err = p(timedWorkers)
		}
		plainWall := time.Since(t0)
		if err == nil {
			err = plain.check(sz)
		}
		if err != nil {
			res.fail(stderr, fmt.Errorf("%s untraced pass: %w", w.name, err))
			return res
		}

		res.Attempted++
		runtime.GC()
		atBefore := sp.busy[spFaultAt]
		t0 = time.Now()
		replayed, extra, err = w.replay(sz, seed, &sp)
		// fault.at re-runs lookups outside the pass it measures; its time
		// is not part of the traced pass.
		wall := time.Since(t0) - (sp.busy[spFaultAt] - atBefore)
		if err == nil {
			err = replayed.check(sz)
		}
		if err == nil {
			err = sameSummary("the untraced pass", plain, replayed)
		}
		if err != nil {
			res.fail(stderr, fmt.Errorf("%s traced replay: %w", w.name, err))
			return res
		}
		plainWalls = append(plainWalls, plainWall.Seconds())
		tracedWalls = append(tracedWalls, wall.Seconds())
		tracedTotal += wall
	}

	layerMetrics(res.Metrics, &sp, len(tracedWalls), tracedTotal, replayed.counts(), extra)
	res.Metrics["trace.wall_s"] = metric{median(tracedWalls), "s"}
	res.Metrics["trace.overhead"] = metric{median(tracedWalls)/median(plainWalls) - 1, "ratio"}
	res.note("%s: %d untraced passes, wall s %.4g; %d traced replays, wall s %.4g",
		w.name, len(plainWalls), plainWalls, len(tracedWalls), tracedWalls)
	if cov := res.Metrics["trace.coverage"].Value; cov < minCoverage || cov > 1 {
		res.fail(stderr, fmt.Errorf("%s: trace.coverage %.4f outside [%.2f, 1]: the spans no longer time the pass", w.name, cov, minCoverage))
	}
	return res
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
