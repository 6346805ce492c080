// Command cyclops-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	cyclops-bench -experiment all
//	cyclops-bench -experiment table1
//	cyclops-bench -experiment fig13 -seed 7
//	cyclops-bench -experiment fig16 -parallel 8   # 8 workers, same output
//	cyclops-bench -experiment all -parallel 1     # force the serial path
//	cyclops-bench -experiment fig16 -metrics metrics.prom
//	cyclops-bench -experiment all -pprof localhost:6060
//
// -parallel sets the fan-out width for the corpus simulations and
// multi-rig experiments (0, the default, uses every core). Results are
// bit-identical for any worker count, and every worker runs the solvers
// on precompiled GMA models (gma.Compiled — see DESIGN.md §8 and
// BENCH_hotpath.json for the measured timings).
//
// -metrics writes the process-wide registry as Prometheus text exposition
// to the given file when the run completes. -pprof serves
// net/http/pprof on the given address for the duration of the run.
//
// The experiment names come from the cyclops.Experiments registry:
// fig3, table1, fig11, table2, tp, fig13, fig14, fig15, table3, fig16,
// fig16-faults (the chaos availability sweep),
// fig16-handover (the multi-TX make-before-break sweep),
// fig16-arena (the multi-user venue capacity sweep),
// fig16-hybrid (the FSO vs mmWave vs hybrid failover sweep),
// convergence, ablations, extensions — or all.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"cyclops"
	"cyclops/internal/parallel"
)

func main() {
	var names []string
	for _, e := range cyclops.Experiments() {
		names = append(names, e.Name())
	}
	experiment := flag.String("experiment", "all",
		"which experiment to run ("+strings.Join(names, "|")+"|all)")
	seed := flag.Int64("seed", 1, "seed for all hidden variation")
	workers := flag.Int("parallel", 0, "worker count for experiment fan-out (0 = all cores, 1 = serial); any value produces identical results")
	metricsFile := flag.String("metrics", "", "write Prometheus text exposition of the run's metrics to this file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cyclops-bench: pprof: %v\n", err)
			}
		}()
	}

	run := func(e cyclops.Experiment) error {
		res, err := e.Run(*seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}

	which := strings.ToLower(*experiment)
	switch which {
	case "all":
		for _, e := range cyclops.Experiments() {
			fmt.Printf("==== %s ====\n", e.Name())
			start := time.Now()
			if err := run(e); err != nil {
				fmt.Fprintf(os.Stderr, "cyclops-bench: %s: %v\n", e.Name(), err)
				os.Exit(1)
			}
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		}
	default:
		e, ok := cyclops.LookupExperiment(which)
		if !ok {
			fmt.Fprintf(os.Stderr, "cyclops-bench: unknown experiment %q (want %s or all)\n",
				which, strings.Join(names, "|"))
			os.Exit(2)
		}
		if err := run(e); err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *metricsFile != "" {
		exp := cyclops.DefaultMetrics().Exposition()
		if err := os.WriteFile(*metricsFile, []byte(exp), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-bench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}
