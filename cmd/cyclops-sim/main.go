// Command cyclops-sim runs the full Cyclops system on a chosen motion
// program and prints the resulting power/throughput time series plus a run
// summary — the interactive way to poke at the simulated prototype.
//
// Usage:
//
//	cyclops-sim -link 10g -motion linear -speed 0.3
//	cyclops-sim -link 25g -motion handheld -duration 30s -oracle
//	cyclops-sim -motion trace -seed 4
//	cyclops-sim -motion handheld -metrics run.prom
//	cyclops-sim -motion handheld -chaos -chaos-seed 7   # fault injection
//	cyclops-sim -motion handheld -chaos -tx 2      # multi-TX handover
//	cyclops-sim -motion static -haze -hybrid       # mmWave failover
//	cyclops-sim -experiment convergence            # registry dispatch
//	cyclops-sim -experiment fig16-arena -users 64 -density 1.0
//
// -experiment bypasses the interactive run and executes a named entry of
// the cyclops.Experiments registry instead (same names as cyclops-bench).
// For fig16-arena, -users switches from the default sweep to a single
// venue sized to hold that many headsets at -density users/m²
// (-users-per-tx caps how many one ceiling TX serves).
// -chaos plans a seeded fault schedule (cyclops.DefaultFaultConfig) over
// the run and arms the recovery supervisor: the summary then reports
// outages, reacquisitions, and degraded time, and the metrics exposition
// gains cyclops_outage_total, cyclops_reacquire_seconds, and the
// supervisor time-in-state gauges.
// -tx N (N > 1, with -chaos) adds N−1 standby ceiling TXs on a ring of
// -handover-spacing meters and arms make-before-break handover: occlusions
// of the primary path switch to a pre-pointed standby inside the SFP's LOS
// holdover instead of unlocking the link. -handover is shorthand for
// -tx 2. The summary gains a handover count and the exposition gains
// cyclops_handover_total / cyclops_handover_seconds.
// -haze plans slow environmental fade ramps (cyclops.DefaultHazeFaultConfig)
// over the run — fog-like attenuation that kills the optical budget but is
// transparent to mmWave; it composes with -chaos's schedule. -hybrid arms
// the hybrid FSO + mmWave failover policy: a shadow mmWave link steps
// beside the plant, the summary gains a failover/readmit line, and the
// exposition gains the cyclops_policy_* and cyclops_mmwave_* instruments.
// -metrics writes the run's Prometheus text exposition to a file on exit;
// the exposition includes cyclops_pointing_beam_evals_total, the forward
// GMA-model evaluation budget the realignment loop consumed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"cyclops"
)

func main() {
	linkName := flag.String("link", "10g", "link design: 10g | 10g-collimated | 25g")
	motionName := flag.String("motion", "linear", "motion program: static | linear | angular | handheld | trace")
	speed := flag.Float64("speed", 0.25, "peak speed for linear (m/s) or angular (rad/s) programs")
	duration := flag.Duration("duration", 0, "cap the run duration (0 = program length)")
	seed := flag.Int64("seed", 1, "seed for all hidden variation")
	oracle := flag.Bool("oracle", false, "use oracle models instead of running the calibration")
	series := flag.Bool("series", false, "print the 50 ms throughput/power series")
	experiment := flag.String("experiment", "", "run a named experiment from the registry instead of an interactive run")
	metricsFile := flag.String("metrics", "", "write Prometheus text exposition of the run's metrics to this file on exit")
	chaos := flag.Bool("chaos", false, "inject a seeded fault schedule (occlusions, tracker dropouts, galvo faults) and arm the recovery supervisor")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos fault schedule (independent of -seed)")
	haze := flag.Bool("haze", false, "inject slow environmental fade ramps (fog-like attenuation; composes with -chaos)")
	hybrid := flag.Bool("hybrid", false, "arm the hybrid FSO + mmWave failover policy")
	txCount := flag.Int("tx", 1, "total ceiling TX count; > 1 arms make-before-break handover (requires -chaos)")
	txSpacing := flag.Float64("handover-spacing", 1.4, "ceiling ring spacing in meters for the standby TXs of -tx")
	handoverFlag := flag.Bool("handover", false, "shorthand for -tx 2")
	users := flag.Int("users", 0, "with -experiment fig16-arena: headset count for a single-venue run instead of the default sweep")
	density := flag.Float64("density", 0, "with -experiment fig16-arena: crowd density in users/m² (requires -users)")
	usersPerTX := flag.Int("users-per-tx", 0, "with -experiment fig16-arena -users: per-ceiling-TX serving cap (0 = arena default)")
	flag.Parse()
	if *handoverFlag && *txCount < 2 {
		*txCount = 2
	}

	writeMetrics := func() {
		if *metricsFile == "" {
			return
		}
		exp := cyclops.DefaultMetrics().Exposition()
		if err := os.WriteFile(*metricsFile, []byte(exp), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-sim: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}

	if *experiment == "fig16-arena" && *users > 0 {
		d := *density
		if d <= 0 {
			d = 1.0
		}
		res, err := cyclops.Fig16ArenaAt(*seed, *users, d, *usersPerTX)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-sim: fig16-arena: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		writeMetrics()
		return
	}

	if *experiment != "" {
		e, ok := cyclops.LookupExperiment(*experiment)
		if !ok {
			var names []string
			for _, reg := range cyclops.Experiments() {
				names = append(names, reg.Name())
			}
			fmt.Fprintf(os.Stderr, "cyclops-sim: unknown experiment %q (want %s)\n",
				*experiment, strings.Join(names, "|"))
			os.Exit(2)
		}
		res, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-sim: %s: %v\n", e.Name(), err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		writeMetrics()
		return
	}

	var cfg cyclops.LinkConfig
	switch *linkName {
	case "10g":
		cfg = cyclops.Link10G
	case "10g-collimated":
		cfg = cyclops.Link10GCollimated
	case "25g":
		cfg = cyclops.Link25G
	default:
		fmt.Fprintf(os.Stderr, "cyclops-sim: unknown link %q\n", *linkName)
		os.Exit(2)
	}

	var prog cyclops.Program
	switch *motionName {
	case "static":
		prog = cyclops.LinearRail(0, 0.01, 0, 1)
	case "linear":
		prog = cyclops.LinearRail(0.20, *speed, 0, 6)
	case "angular":
		prog = cyclops.RotationStage(0.30, *speed, 0, 6)
	case "handheld":
		prog = cyclops.HandHeld(0.4, 0.6, 30*time.Second, *seed)
	case "trace":
		prog = cyclops.Playback(cyclops.GenerateTrace(*seed, 0, time.Minute))
	default:
		fmt.Fprintf(os.Stderr, "cyclops-sim: unknown motion %q\n", *motionName)
		os.Exit(2)
	}

	sys := cyclops.NewSystem(cfg, *seed)
	if *oracle {
		sys.UseOracleModels()
		fmt.Println("using oracle models (perfect TP)")
	} else {
		fmt.Println("calibrating (grid board + aligned tuples)...")
		rep, err := sys.Calibrate()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-sim: calibration: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("calibrated: %v\n", rep)
	}

	// Mirrors core.Run: a positive -duration IS the run length (it can
	// extend a short program, whose pose then holds); 0 means the
	// program's own length.
	effDur := prog.Duration()
	if *duration > 0 {
		effDur = *duration
	}
	opts := cyclops.RunOptions{
		Program:     prog,
		Duration:    *duration,
		SampleEvery: 10 * time.Millisecond,
	}
	if *chaos || *haze {
		var cfg cyclops.FaultConfig
		if *chaos {
			cfg = cyclops.DefaultFaultConfig()
		}
		if *haze {
			hz := cyclops.DefaultHazeFaultConfig()
			cfg.Haze, cfg.HazeDepthDB = hz.Haze, hz.HazeDepthDB
			cfg.HazeRampUp, cfg.HazeRampDown = hz.HazeRampUp, hz.HazeRampDown
		}
		sched := cyclops.PlanFaults(cfg, *chaosSeed, effDur)
		opts.Faults = &sched
		fmt.Printf("chaos: injecting %d fault windows (seed %d)\n", len(sched.Windows), *chaosSeed)
	}
	if *hybrid {
		opts.Hybrid = &cyclops.HybridOptions{}
		fmt.Println("hybrid: mmWave secondary armed (SLO-driven failover)")
	}
	if *txCount > 1 {
		if !*chaos {
			fmt.Fprintln(os.Stderr, "cyclops-sim: -tx > 1 needs -chaos (handover only matters under faults)")
			os.Exit(2)
		}
		standbys := cyclops.StandbyRing(cfg, *seed, *txCount-1, *txSpacing)
		// Each standby path gets its own independent occlusion draw,
		// seeded off the chaos seed so the whole run stays reproducible.
		scheds := make([]*cyclops.FaultSchedule, len(standbys))
		for i := range standbys {
			s := cyclops.PlanFaults(cyclops.DefaultFaultConfig(), *chaosSeed+int64(i+1)*101, effDur)
			scheds[i] = &s
		}
		opts.Handover = &cyclops.HandoverOptions{Standbys: standbys, StandbyFaults: scheds}
		fmt.Printf("handover: %d TXs on a %.1f m ring, make-before-break armed\n", *txCount, *txSpacing)
	}
	res, err := sys.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclops-sim: run: %v\n", err)
		os.Exit(1)
	}

	if *series {
		fmt.Println("t(ms)  goodput(Gbps)")
		for _, w := range res.Windows {
			fmt.Printf("%6d  %6.2f\n", w.Start/time.Millisecond, w.Gbps)
		}
	}

	var maxLin, maxAng float64
	for _, s := range res.Samples {
		maxLin = math.Max(maxLin, s.LinSpeed)
		maxAng = math.Max(maxAng, s.AngSpeed)
	}
	fmt.Printf(`run summary (%s, %s):
  duration            %v
  link up             %.1f%% of ticks, %d disconnections
  pointing            %d solves (%.1f P iters, %.1f G' iters avg), %d failures
  TP latency          %v
  peak measured speed %.1f cm/s, %.1f deg/s
`,
		cfg.Name, *motionName,
		effDur,
		res.UpFraction*100, res.Disconnections,
		res.Points, res.MeanPointIters(), res.MeanGPrimeIters(), res.PointFailures,
		res.MeanTPLatency,
		maxLin*100, maxAng*180/math.Pi)
	if *chaos || *haze {
		degraded := 0
		for _, s := range res.Samples {
			if s.Degraded {
				degraded++
			}
		}
		fmt.Printf("  outages             %d (%d reacquired), %d degraded ticks, %d degraded samples\n",
			res.Outages, res.Reacquired, res.DegradedTicks, degraded)
		if *txCount > 1 {
			fmt.Printf("  handovers           %d\n", res.Handovers)
		}
	}
	if *hybrid && res.Hybrid != nil {
		h := res.Hybrid
		fmt.Printf("  hybrid              %d failovers, %d readmits, %d ticks on mmWave, delivered %.1f%% up\n",
			h.Failovers, h.Readmits, h.SecondaryTicks, h.DeliveredUpFraction*100)
	}
	writeMetrics()
}
