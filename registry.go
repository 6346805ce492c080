package cyclops

import (
	"strings"
	"time"
)

// Experiment is one runnable unit of the paper's evaluation: a table, a
// figure, or a bundle of related ablations. Every experiment is driven by
// a single seed (all hidden variation derives from it) and returns a
// Result that renders the same rows the paper reports.
//
// The concrete experiments remain plain functions (Fig3, Table1, …) —
// this interface is the uniform surface the command-line tools and
// harnesses dispatch on.
type Experiment interface {
	// Name is the registry key ("fig3", "table1", …), stable across
	// releases.
	Name() string
	// Run executes the experiment with the given seed.
	Run(seed int64) (Result, error)
}

// Result is a structured experiment outcome that can render itself as the
// paper-style text report. All the per-experiment result types
// (Fig3Result, Table1Result, MotionResult, …) satisfy it.
type Result interface {
	Render() string
}

// experimentFunc adapts a closure to the Experiment interface.
type experimentFunc struct {
	name string
	run  func(seed int64) (Result, error)
}

func (e experimentFunc) Name() string                   { return e.name }
func (e experimentFunc) Run(seed int64) (Result, error) { return e.run(seed) }

// adapt lifts an experiment function with a concrete result type to the
// registry's signature, keeping a nil Result on error.
func adapt[R Result](f func(seed int64) (R, error)) func(seed int64) (Result, error) {
	return func(s int64) (Result, error) {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// multiResult concatenates sub-results in order — for experiments that
// produce several reports (Fig 13's two rigs, the ablation bundle).
type multiResult []Result

func (m multiResult) Render() string {
	var b strings.Builder
	for _, r := range m {
		b.WriteString(r.Render())
	}
	return b.String()
}

// textResult wraps an already-rendered report (the eye-safety table and
// other static text sections).
type textResult string

func (t textResult) Render() string { return string(t) }

// Experiments returns the full evaluation suite in canonical order — the
// order `cyclops-bench -experiment all` runs and prints them. Seed
// handling inside each entry (offsets between sub-experiments) is part of
// the experiment's definition and matches the historical cyclops-bench
// behavior exactly.
func Experiments() []Experiment {
	return []Experiment{
		experimentFunc{"fig3", func(s int64) (Result, error) {
			return Fig3(s, 25), nil
		}},
		experimentFunc{"table1", func(int64) (Result, error) {
			return Table1(), nil
		}},
		experimentFunc{"fig11", func(int64) (Result, error) {
			return Fig11(), nil
		}},
		experimentFunc{"table2", adapt(Table2)},
		experimentFunc{"tp", adapt(TPEvaluation)},
		experimentFunc{"fig13", func(s int64) (Result, error) {
			lin, ang, err := Fig13(s)
			if err != nil {
				return nil, err
			}
			return multiResult{lin, ang}, nil
		}},
		experimentFunc{"fig14", adapt(Fig14)},
		experimentFunc{"fig15", func(s int64) (Result, error) {
			lin, ang, mix, err := Fig15(s)
			if err != nil {
				return nil, err
			}
			return multiResult{lin, ang, mix}, nil
		}},
		experimentFunc{"table3", adapt(Table3)},
		experimentFunc{"fig16", func(s int64) (Result, error) {
			return Fig16(s), nil
		}},
		experimentFunc{"fig16-faults", adapt(Fig16Faults)},
		experimentFunc{"fig16-handover", adapt(Fig16Handover)},
		experimentFunc{"fig16-arena", adapt(Fig16Arena)},
		experimentFunc{"fig16-hybrid", adapt(Fig16Hybrid)},
		experimentFunc{"convergence", adapt(Convergence)},
		experimentFunc{"ablations", func(s int64) (Result, error) {
			dg, err := AblationDirectGPrime(s)
			if err != nil {
				return nil, err
			}
			fo, err := AblationFixedOrigin(s + 1)
			if err != nil {
				return nil, err
			}
			tr := textResult(RenderTrackingRate(AblationTrackingRate(s+2, []time.Duration{
				2 * time.Millisecond, 5 * time.Millisecond,
				10 * time.Millisecond, 20 * time.Millisecond,
			})))
			bc, err := AblationBeamChoice(s + 3)
			if err != nil {
				return nil, err
			}
			cp, err := AblationCouplingImprovement(s + 4)
			if err != nil {
				return nil, err
			}
			return multiResult{dg, fo, tr, bc, cp}, nil
		}},
		experimentFunc{"extensions", func(s int64) (Result, error) {
			h, err := ExtensionHandover(s)
			if err != nil {
				return nil, err
			}
			bm, err := BaselineMmWave(s + 1)
			if err != nil {
				return nil, err
			}
			return multiResult{h, bm, textResult(EyeSafetyTable()), textResult(FutureWork40G())}, nil
		}},
	}
}

// LookupExperiment finds a registry entry by name (case-insensitive).
func LookupExperiment(name string) (Experiment, bool) {
	name = strings.ToLower(name)
	for _, e := range Experiments() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}
