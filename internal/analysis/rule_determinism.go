package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// forbiddenStdlibFuncs maps package path → function name → the message
// suffix explaining the sanctioned alternative. Any *use* of the object is
// flagged (calls, but also taking the function as a value).
var forbiddenStdlibFuncs = map[string]map[string]string{
	"time": {
		"Now":   "derive timestamps from the simulation clock or the seed",
		"Since": "derive durations from the simulation clock",
		"Until": "derive durations from the simulation clock",
	},
	"os": {
		"Getenv":    "plumb configuration through options structs",
		"LookupEnv": "plumb configuration through options structs",
		"Environ":   "plumb configuration through options structs",
	},
}

// randAlt is the one generator the deterministic scope draws from.
const randAlt = "draw from a seeded internal/xrand generator (xrand.New, or Rand.Seed on a held value)"

// isMathRand reports whether an import path is math/rand or math/rand/v2.
func isMathRand(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func ruleDeterminism() Rule {
	return Rule{
		Name: "determinism",
		Doc: "In the deterministic scope (every package under internal/ except the documented " +
			"deterministicScopeHoles), non-test code must be a pure function of explicit seeds: " +
			"time.Now/Since/Until and os.Getenv/LookupEnv/Environ are forbidden, and math/rand and " +
			"math/rand/v2 may not be imported (internal/xrand is the one generator).",
		Suppress: dirDetOK,
		Check: func(p *Pass) {
			for _, pkg := range p.Module.Pkgs {
				if !inDeterministicScope(pkg.RelPath) {
					continue
				}
				for _, f := range pkg.Files {
					for _, spec := range f.Imports {
						if path, err := strconv.Unquote(spec.Path.Value); err == nil && isMathRand(path) {
							p.Reportf(p.Pos(spec.Path.Pos()),
								"import of %s in deterministic package %s: %s", path, pkg.RelPath, randAlt)
						}
					}
					ast.Inspect(f, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						fn, ok := pkg.Info.Uses[id].(*types.Func)
						if !ok {
							return true
						}
						// math/rand is reported at its import; FMA by float-determinism.
						if src, bad := forbiddenSource(fn); bad && (src.cat == SrcClock || src.cat == SrcEnv) {
							p.Reportf(p.Pos(id.Pos()), "%s in deterministic package %s: %s", src.desc, pkg.RelPath, src.alt)
						}
						return true
					})
				}
			}
		},
	}
}

func ruleMapOrder() Rule {
	return Rule{
		Name: "map-order",
		Doc: "In the deterministic packages, `for range` over a map iterates in randomized order and " +
			"must not exist in non-test code unless annotated //cyclops:deterministic-ok <reason> " +
			"(sorted-key extraction is the sanctioned pattern; a justified annotation states why " +
			"order cannot leak, e.g. the loop builds another map or the reduction is exact).",
		Suppress: dirDetOK,
		Check: func(p *Pass) {
			for _, pkg := range p.Module.Pkgs {
				if !inDeterministicScope(pkg.RelPath) {
					continue
				}
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						rs, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						tv, ok := pkg.Info.Types[rs.X]
						if !ok {
							return true
						}
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							p.Reportf(p.Pos(rs.For),
								"range over map %s in deterministic package %s: extract sorted keys, or annotate //cyclops:deterministic-ok <reason>",
								types.ExprString(rs.X), pkg.RelPath)
						}
						return true
					})
				}
			}
		},
	}
}
