package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //cyclops: annotation grammar (DESIGN.md §10). An annotation is a
// line comment of the exact form
//
//	//cyclops:<directive> [reason...]
//
// (no space after //, matching the //go: convention). Directives:
//
//   - hotpath — on a function's doc comment: the function body must stay
//     allocation-free (no fmt, no make/new, no append that grows a fresh
//     slice, no conversions to interface types). A trailing note is
//     allowed and ignored.
//   - deterministic-ok <reason> — suppresses determinism and map-order
//     findings on the annotated line. Reason required.
//   - alloc-ok <reason> — suppresses hotpath findings. Reason required.
//   - metric-ok <reason> — suppresses metrics-hygiene findings. Reason
//     required.
//   - discard-ok <reason> — suppresses error-discard findings. Reason
//     required.
//   - panic-ok <reason> — suppresses panic findings. Reason required.
//   - contract-ok <reason> — suppresses opt-in-contract findings (a
//     RunOptions field that is deliberately not a pointer-armed feature,
//     or a switch whose default is a documented catch-all). Reason
//     required.
//   - keep <reason> — on (or directly above) an exported declaration
//     under internal/: exempts it from the unused rule and marks what it
//     uses as reached. Reason required.
//
// A suppressing annotation covers findings on its own line (trailing
// comment) and on the line directly below it (standalone comment above
// the offending statement). Unknown directives and suppressors without a
// reason are themselves findings (rule "annotation") and suppress
// nothing — a typo must never silently disable a check.

const annPrefix = "//cyclops:"

// directive names.
const (
	dirHotpath    = "hotpath"
	dirDetOK      = "deterministic-ok"
	dirAllocOK    = "alloc-ok"
	dirMetricOK   = "metric-ok"
	dirDiscardOK  = "discard-ok"
	dirPanicOK    = "panic-ok"
	dirContractOK = "contract-ok"
	dirKeep       = "keep"
)

// needsReason reports whether a directive is a suppressor requiring a
// justification.
func needsReason(dir string) bool {
	switch dir {
	case dirDetOK, dirAllocOK, dirMetricOK, dirDiscardOK, dirPanicOK, dirContractOK, dirKeep:
		return true
	}
	return false
}

func knownDirective(dir string) bool {
	return dir == dirHotpath || needsReason(dir)
}

// annotation is one parsed //cyclops: comment.
type annotation struct {
	dir    string
	reason string
	pos    token.Position
}

// annotations indexes a module's valid suppressing annotations by
// (filename, line, directive).
type annotations struct {
	byLine map[annKey]bool
}

type annKey struct {
	file string
	line int
	dir  string
}

// parseAnnotations scans every comment of every file, records valid
// suppressors, and reports malformed ones through report (signature
// matches Pass.report).
func parseAnnotations(mod *Module, report func(rule string, pos token.Position, msg string)) *annotations {
	ann := &annotations{byLine: map[annKey]bool{}}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, annPrefix)
					if !ok {
						// Catch the near-miss that would otherwise
						// silently not suppress: a known directive
						// behind "// cyclops:" spacing or casing.
						// (Ordinary prose mentioning "Cyclops:" never
						// names a directive, so it stays untouched.)
						t := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						if rest, isAnn := strings.CutPrefix(strings.ToLower(t), "cyclops:"); isAnn {
							d, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
							if knownDirective(d) {
								report(RuleAnnotation, mod.Fset.Position(c.Pos()),
									"malformed annotation "+strings.TrimSpace(c.Text)+" (write //cyclops:"+d+" with no space after //)")
							}
						}
						continue
					}
					dir, reason, _ := strings.Cut(text, " ")
					reason = strings.TrimSpace(reason)
					// Findings carry module-root-relative filenames
					// (Pass.Pos); the suppression index must key the
					// same way or nothing ever matches.
					pos := mod.Fset.Position(c.Pos())
					pos.Filename = mod.relFile(pos.Filename)
					switch {
					case !knownDirective(dir):
						report(RuleAnnotation, pos, "unknown //cyclops: directive "+strings.TrimSpace(dir))
					case needsReason(dir) && reason == "":
						report(RuleAnnotation, pos, "//cyclops:"+dir+" requires a reason")
					case needsReason(dir):
						ann.byLine[annKey{pos.Filename, pos.Line, dir}] = true
					}
				}
			}
		}
	}
	return ann
}

// suppressed reports whether a finding at pos is covered by directive dir:
// an annotation on the finding's own line or on the line directly above.
func (a *annotations) suppressed(dir string, pos token.Position) bool {
	if a == nil {
		return false
	}
	return a.byLine[annKey{pos.Filename, pos.Line, dir}] ||
		a.byLine[annKey{pos.Filename, pos.Line - 1, dir}]
}

// funcHasDirective reports whether fn's doc comment carries the given
// directive (used by the hotpath rule to find annotated functions).
func funcHasDirective(fn *ast.FuncDecl, dir string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, annPrefix); ok {
			d, _, _ := strings.Cut(text, " ")
			if d == dir {
				return true
			}
		}
	}
	return false
}
