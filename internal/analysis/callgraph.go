package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the interprocedural
// rules (determinism-taint, float-determinism, transitive hotpath) are
// founded on. The graph is intentionally simple and conservative
// (DESIGN.md §15):
//
//   - One node per function or method *declared in the module* with a
//     body. Function literals are attributed to the enclosing
//     declaration: a closure's calls, sources, and dynamic calls count
//     against the function that defines it, whether or not the literal
//     ever runs — over-approximation is the safe direction for taint.
//   - A call edge for every call whose callee the type checker resolves
//     to a module-declared function or method (direct calls, method
//     calls through values or pointers, generic instantiations resolve
//     to their origin declaration).
//   - A ref edge for every *mention* of a module function outside call
//     position (passing trace.Generate to parallel.Map, storing a method
//     value in a struct). A referenced function may be called by whoever
//     receives it, so refs propagate taint exactly like calls.
//   - Interface method calls and calls through func-typed values cannot
//     be resolved statically; they are recorded as Dynamic entries. The
//     taint rules do not traverse them (the deterministic scope is broad
//     enough that any module-defined implementation is itself checked);
//     the transitive hotpath rule reports them as unknown-callee
//     findings, because purity must be provable there.
//   - Uses of the forbidden nondeterminism sources (time.Now and
//     friends, os.Getenv and friends, global math/rand, math.FMA) and
//     `range` over a map are recorded as Sources on the containing
//     node; the taint rules seed from them.
//
// Package-level variable initializers are not part of the graph: the
// direct determinism rule walks whole files, so a forbidden source in a
// scoped package's var block is still a finding — it just doesn't taint.

// SourceCat classifies a taint source.
type SourceCat string

const (
	// SrcClock is time.Now/Since/Until.
	SrcClock SourceCat = "clock"
	// SrcEnv is os.Getenv/LookupEnv/Environ.
	SrcEnv SourceCat = "env"
	// SrcRand is a global math/rand (or math/rand/v2) top-level function.
	SrcRand SourceCat = "rand"
	// SrcMapRange is `for range` over a map.
	SrcMapRange SourceCat = "map-range"
	// SrcFMA is math.FMA (fused rounding differs from x*y+z and invites
	// platform-variant code paths).
	SrcFMA SourceCat = "fma"
)

// CGSource is one forbidden-source use inside a function body.
type CGSource struct {
	Pos  token.Pos
	Cat  SourceCat
	Desc string // "time.Now", "range over map m"
	Alt  string // the sanctioned alternative, for the finding message
}

// CGEdge is one resolved static edge to a module-declared function.
type CGEdge struct {
	To  *types.Func
	Pos token.Pos
	// Ref marks a mention outside call position (function value); the
	// target may be called by whoever receives it.
	Ref bool
}

// CGDyn is one call whose callee cannot be resolved statically.
type CGDyn struct {
	Pos  token.Pos
	Desc string // "interface call (io.Writer).Write", "call through func value f"
}

// CGNode is one module-declared function or method.
type CGNode struct {
	Fn      *types.Func
	Pkg     *Package
	Decl    *ast.FuncDecl
	Calls   []CGEdge
	Dynamic []CGDyn
	Sources []CGSource
}

// Name renders the node's qualified name for chain messages:
// "internal/core.(*runLoop).step", "internal/geom.Unit".
func (n *CGNode) Name() string {
	return funcName(n.Pkg.RelPath, n.Fn)
}

func funcName(rel string, fn *types.Func) string {
	prefix := rel
	if prefix == "." {
		prefix = fn.Pkg().Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		return prefix + ".(" + recv + ")." + fn.Name()
	}
	return prefix + "." + fn.Name()
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
	// Order lists the nodes in deterministic (package, file, position)
	// order — every rule iteration goes through it.
	Order []*CGNode
}

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.graph != nil {
		return m.graph
	}
	g := &CallGraph{Nodes: map[*types.Func]*CGNode{}}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: fn, Pkg: pkg, Decl: fd}
				buildNode(m, pkg, fd, node)
				g.Nodes[fn] = node
				g.Order = append(g.Order, node)
			}
		}
	}
	// m.Pkgs is path-sorted and files/decls walk in source order, but
	// pin the order explicitly against future loader changes.
	sort.SliceStable(g.Order, func(i, j int) bool {
		a, b := g.Order[i], g.Order[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	m.graph = g
	return g
}

// moduleFunc reports whether fn is declared in the module under analysis.
func (m *Module) moduleFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == m.Path || strings.HasPrefix(p, m.Path+"/")
}

// buildNode walks one declaration body (closures included) and fills the
// node's edges, dynamic calls, and sources.
func buildNode(m *Module, pkg *Package, fd *ast.FuncDecl, node *CGNode) {
	info := pkg.Info

	// First pass: remember which identifiers sit in call position (the
	// callee ident itself, or the Sel of a callee selector), so the ref
	// pass below doesn't double-count a call as a mention.
	inCallPos := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			inCallPos[fun] = true
		case *ast.SelectorExpr:
			inCallPos[fun.Sel] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			buildCall(m, info, node, n)
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					node.Sources = append(node.Sources, CGSource{
						Pos:  n.For,
						Cat:  SrcMapRange,
						Desc: "range over map " + types.ExprString(n.X),
						Alt:  "extract sorted keys",
					})
				}
			}
		case *ast.Ident:
			fn, ok := info.Uses[n].(*types.Func)
			if !ok {
				return true
			}
			if src, ok := forbiddenSource(fn); ok {
				node.Sources = append(node.Sources, CGSource{Pos: n.Pos(), Cat: src.cat, Desc: src.desc, Alt: src.alt})
				return true
			}
			if m.moduleFunc(fn) && !inCallPos[n] {
				node.Calls = append(node.Calls, CGEdge{To: fn, Pos: n.Pos(), Ref: true})
			}
		}
		return true
	})
}

// buildCall classifies one call expression: static edge, dynamic call, or
// neither (builtins, conversions, stdlib).
func buildCall(m *Module, info *types.Info, node *CGNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Type conversion or builtin: no callee.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	if builtinName(info, fun) != "" {
		return
	}
	// An immediately-invoked literal's body is walked as part of this
	// node already.
	if _, ok := fun.(*ast.FuncLit); ok {
		return
	}

	if fn := calleeFunc(info, fun); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				node.Dynamic = append(node.Dynamic, CGDyn{
					Pos:  call.Pos(),
					Desc: "interface call (" + types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }) + ")." + fn.Name(),
				})
				return
			}
		}
		if m.moduleFunc(fn) {
			node.Calls = append(node.Calls, CGEdge{To: fn, Pos: call.Pos()})
		}
		// Stdlib callee: sources are recorded by the ident walk;
		// nothing else to do (bodies outside the module are trusted to
		// the runtime gates).
		return
	}

	// Unresolvable: a call through a func-typed value.
	node.Dynamic = append(node.Dynamic, CGDyn{
		Pos:  call.Pos(),
		Desc: "call through func value " + types.ExprString(fun),
	})
}

// forbidden source classification for the ident walk.
type srcInfo struct {
	cat  SourceCat
	desc string
	alt  string
}

func forbiddenSource(fn *types.Func) (srcInfo, bool) {
	if fn.Pkg() == nil {
		return srcInfo{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return srcInfo{}, false // methods (e.g. (*rand.Rand).Intn) are fine
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	if alt, bad := forbiddenStdlibFuncs[path][name]; bad {
		cat := SrcClock
		if path == "os" {
			cat = SrcEnv
		}
		return srcInfo{cat: cat, desc: path + "." + name, alt: alt}, true
	}
	if (path == "math/rand" || path == "math/rand/v2") && !sanctionedRandFuncs[name] {
		return srcInfo{cat: SrcRand, desc: "global " + path + "." + name, alt: "use rand.New(rand.NewSource(seed))"}, true
	}
	if path == "math" && name == "FMA" {
		return srcInfo{
			cat:  SrcFMA,
			desc: "math.FMA",
			alt:  "write the unfused x*y + z (one rounding per op, identical on every platform)",
		}, true
	}
	return srcInfo{}, false
}
