// Command cyclops-vet is the repo's invariant linter: a stdlib-only
// static-analysis suite (go/parser + go/types; nothing added to go.mod)
// that loads every non-test package of the module, builds the module-wide
// static call graph, and enforces the determinism (direct + transitive
// taint), float-determinism, hot-path purity (whole call tree),
// metrics-hygiene, error-discipline, and opt-in-contract invariants the
// runtime test suites can only catch after the fact.
//
// Usage:
//
//	cyclops-vet [flags] [./...]
//
//	-root dir       module root to analyze (default "."; go.mod located there)
//	-module path    treat -root as a module with this path even without a
//	                go.mod — used by fixture trees and the lint smoke gates
//	-list           print the rule catalog and exit
//	-json           emit a machine-readable report (module, packages,
//	                elapsed_ms, findings, suppressed)
//
// Without -json, findings print one per line as file:line:col: rule:
// message, sorted by path and line. The exit status is 1 when any
// unsuppressed finding exists, 2 on load/type-check errors; zero findings
// exits 0. The only way to silence a finding is a reasoned //cyclops:
// annotation at its line. The rule catalog and the annotation grammar are
// documented in DESIGN.md §10; the call graph and taint semantics in §15.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cyclops/internal/analysis"
)

func main() {
	root := flag.String("root", ".", "module root directory to analyze")
	modPath := flag.String("module", "", "module path override (analyze -root without a go.mod, e.g. fixture trees)")
	list := flag.Bool("list", false, "print the rule catalog and exit")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cyclops-vet [flags] [./...]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// The conventional `cyclops-vet ./...` spelling is accepted (and is
	// what make lint uses); the loader always covers the whole module.
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "cyclops-vet: unsupported pattern %q (the module at -root is always analyzed whole)\n", arg)
			os.Exit(2)
		}
	}

	if *list {
		for _, r := range analysis.Rules() {
			fmt.Printf("%s: %s\n", r.Name, r.Doc)
			if r.Suppress != "" {
				fmt.Printf("    suppress: //cyclops:%s <reason>\n", r.Suppress)
			}
		}
		return
	}

	start := time.Now()
	var mod *analysis.Module
	var err error
	if *modPath != "" {
		mod, err = analysis.LoadTree(*root, *modPath)
	} else {
		mod, err = analysis.LoadModule(*root)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclops-vet: %v\n", err)
		os.Exit(2)
	}

	rep := analysis.Run(mod, analysis.Rules())
	elapsed := time.Since(start)

	if *jsonOut {
		out := jsonReport{
			Module:     mod.Path,
			Packages:   len(mod.Pkgs),
			ElapsedMS:  elapsed.Milliseconds(),
			Findings:   jsonFindings(rep.Findings),
			Suppressed: rep.Suppressed,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "cyclops-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Println(f.String())
		}
	}

	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "cyclops-vet: %d finding(s) in %d package(s)", len(rep.Findings), len(mod.Pkgs))
		if rep.Suppressed > 0 {
			fmt.Fprintf(os.Stderr, " (%d suppressed by annotation)", rep.Suppressed)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

// jsonReport is the machine-readable vet output (-json).
type jsonReport struct {
	Module     string        `json:"module"`
	Packages   int           `json:"packages"`
	ElapsedMS  int64         `json:"elapsed_ms"`
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
}

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// jsonFindings converts findings (already sorted by Run) to their wire
// form.
func jsonFindings(findings []analysis.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Rule: f.Rule,
			File: f.Pos.Filename,
			Line: f.Pos.Line,
			Col:  f.Pos.Column,
			Msg:  f.Msg,
		})
	}
	return out
}
