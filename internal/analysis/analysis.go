package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Rule is one self-contained invariant check. Rules are pure functions of
// the loaded module: they walk the typed ASTs and report findings through
// the Pass. Adding a rule is a one-place change: implement the Check,
// give it a Name/Doc/Suppress directive, and append it to Rules().
type Rule struct {
	// Name is the stable rule ID that findings carry ("determinism",
	// "map-order", …).
	Name string
	// Doc is the one-paragraph description -list prints.
	Doc string
	// Suppress is the //cyclops: directive that silences this rule at a
	// finding's line ("" = not suppressible).
	Suppress string
	// Check walks the module and reports findings.
	Check func(p *Pass)
}

// RuleAnnotation is the pseudo-rule ID for malformed //cyclops: comments
// (reported by the annotation parser itself, never suppressible).
const RuleAnnotation = "annotation"

// Finding is one reported violation.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

// String renders the finding in the conventional file:line:col form, with
// the file path relative to the module root when possible.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Report is the outcome of running the rule table over a module.
type Report struct {
	// Findings are the unsuppressed findings, sorted by (file, line,
	// column, rule, message).
	Findings []Finding
	// Suppressed counts findings silenced by valid annotations.
	Suppressed int
}

// Pass carries the module and collects findings while rules run.
type Pass struct {
	Module *Module

	rule       Rule
	ann        *annotations
	findings   []Finding
	suppressed int
}

// Reportf records a finding for the running rule at pos, honoring the
// rule's suppression directive.
func (p *Pass) Reportf(pos token.Position, format string, args ...any) {
	p.reportAs(p.rule.Name, p.rule.Suppress, pos, fmt.Sprintf(format, args...))
}

// ReportfSuppress is Reportf with an explicit suppression directive, for
// rules whose sub-checks answer to different annotations (error-discipline
// uses discard-ok and panic-ok).
func (p *Pass) ReportfSuppress(dir string, pos token.Position, format string, args ...any) {
	p.reportAs(p.rule.Name, dir, pos, fmt.Sprintf(format, args...))
}

func (p *Pass) reportAs(rule, dir string, pos token.Position, msg string) {
	if dir != "" && p.ann.suppressed(dir, pos) {
		p.suppressed++
		return
	}
	p.findings = append(p.findings, Finding{Rule: rule, Pos: pos, Msg: msg})
}

// Pos converts a token.Pos to a module-root-relative Position.
func (p *Pass) Pos(pos token.Pos) token.Position {
	position := p.Module.Fset.Position(pos)
	position.Filename = p.Module.relFile(position.Filename)
	return position
}

func (m *Module) relFile(file string) string {
	if rel, err := relIfUnder(m.Root, file); err == nil {
		return rel
	}
	return file
}

func relIfUnder(root, file string) (string, error) {
	if !strings.HasPrefix(file, root) {
		return "", fmt.Errorf("outside root")
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(file, root), "/")
	if rel == "" {
		return "", fmt.Errorf("outside root")
	}
	return rel, nil
}

// Run executes the rule table over the module and returns the
// deterministic report.
func Run(mod *Module, rules []Rule) Report {
	p := &Pass{Module: mod}
	p.ann = parseAnnotations(mod, func(rule string, pos token.Position, msg string) {
		pos.Filename = mod.relFile(pos.Filename)
		p.reportAs(rule, "", pos, msg)
	})
	for _, r := range rules {
		p.rule = r
		r.Check(p)
	}
	sort.Slice(p.findings, func(i, j int) bool {
		a, b := p.findings[i], p.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return Report{Findings: p.findings, Suppressed: p.suppressed}
}

// Rules returns the full rule table in its canonical order. New rules
// register here and nowhere else.
func Rules() []Rule {
	return []Rule{
		ruleDeterminism(),
		ruleDeterminismTaint(),
		ruleFloatDeterminism(),
		ruleMapOrder(),
		ruleHotPath(),
		ruleMetrics(),
		ruleErrDiscipline(),
		ruleOptInContract(),
		ruleUnused(),
	}
}

// deterministicScopeHoles are the module-relative package paths under
// internal/ documented OUT of the deterministic scope, each with its
// reason. Everything else under internal/ is in scope: the scope is
// "all of internal/ minus documented holes", so a freshly added package
// is covered by default instead of silently missing from an allowlist
// that drifts. (A slice, not a map: this package is part of the scope's
// tooling and practices what it preaches about map iteration order.)
var deterministicScopeHoles = []struct {
	path, reason string
}{
	{"internal/analysis", "offline build tooling that never runs inside an experiment; its own output order is pinned by TestReportDeterministic"},
}

// inDeterministicScope reports whether a package (by module-relative
// path) is covered by the determinism rules: every package under
// internal/ except the documented holes.
func inDeterministicScope(rel string) bool {
	if !strings.HasPrefix(rel, "internal/") {
		return false
	}
	for _, h := range deterministicScopeHoles {
		if rel == h.path || strings.HasPrefix(rel, h.path+"/") {
			return false
		}
	}
	return true
}
