package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ruleUnused flags exported identifiers under internal/ that no non-test
// code in the module reaches. internal/ packages cannot be imported from
// outside the module, so such an export is code only its own tests keep
// alive. Reachability is a mark pass over the types.Info uses; the owner
// model, the dynamic-call refinement and the //cyclops:keep roots are
// described in DESIGN.md §15.
func ruleUnused() Rule {
	return Rule{
		Name: "unused",
		Doc: "Exported package-level funcs, types, vars, consts and methods under internal/ must be " +
			"reachable from non-test code in the module (a method an interface call can land on is " +
			"reached with its type); delete a dead export with the tests that only exercise it, " +
			"or annotate //cyclops:keep <reason>.",
		Suppress: dirKeep,
		Check:    checkUnused,
	}
}

// unusedCand is one exported identifier the rule tracks.
type unusedCand struct {
	id   *ast.Ident
	pkg  *Package
	recv *types.TypeName // receiver base type, for methods
}

func checkUnused(p *Pass) {
	cands := map[types.Object]*unusedCand{}
	var order []types.Object // declaration order
	for _, pkg := range p.Module.Pkgs {
		if pkg.RelPath != "internal" && !strings.HasPrefix(pkg.RelPath, "internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range declIdents(decl) {
					if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
						cands[obj] = &unusedCand{id: id, pkg: pkg, recv: recvTypeName(obj)}
						order = append(order, obj)
					}
				}
			}
		}
	}

	// edges[o] lists the candidates o's declarations use; the nil owner
	// holds the roots' uses.
	edges := map[types.Object][]types.Object{}
	for _, pkg := range p.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				owners := declOwners(pkg, decl, cands)
				walkDeclUses(pkg, decl, func(obj types.Object) {
					if cands[obj] != nil {
						for _, o := range owners {
							edges[o] = append(edges[o], obj)
						}
					}
				})
			}
		}
	}
	// A type reaches its methods that an interface call can land on:
	// whoever holds a value of the type may call them dynamically.
	dynamic := dynamicNames(p.Module)
	for _, obj := range order {
		if r := cands[obj].recv; r != nil && dynamic[obj.Name()] {
			var owner types.Object
			if cands[r] != nil {
				owner = r
			}
			edges[owner] = append(edges[owner], obj)
		}
	}

	live := map[types.Object]bool{}
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			for _, next := range edges[obj] {
				mark(next)
			}
		}
	}
	for _, obj := range edges[nil] {
		mark(obj)
	}
	for _, obj := range order {
		if p.ann.suppressed(dirKeep, p.Pos(cands[obj].id.Pos())) {
			p.suppressed++
			mark(obj)
		}
	}
	for _, obj := range order {
		c := cands[obj]
		if live[obj] || (c.recv != nil && cands[c.recv] != nil && !live[c.recv]) {
			continue // reached, or reported through its dead receiver type
		}
		p.Reportf(p.Pos(c.id.Pos()),
			"exported %s %s is unreachable from the module's non-test code: delete it with the tests that only exercise it, or annotate //cyclops:keep <reason>",
			objKind(obj), qualifiedName(c.pkg, obj))
	}
}

// declIdents lists the package-level identifiers a declaration defines.
func declIdents(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// declOwners returns the candidates whose liveness makes decl's uses
// count: each object decl defines, with a non-candidate method standing
// in for its candidate receiver type. It returns the root owner (nil)
// when decl defines anything else, the blank identifier included.
func declOwners(pkg *Package, decl ast.Decl, cands map[types.Object]*unusedCand) []types.Object {
	var owners []types.Object
	for _, id := range declIdents(decl) {
		obj := pkg.Info.Defs[id]
		if cands[obj] == nil {
			r := recvTypeName(obj)
			if r == nil || cands[r] == nil {
				return []types.Object{nil}
			}
			obj = r
		}
		owners = append(owners, obj)
	}
	if len(owners) == 0 {
		return []types.Object{nil}
	}
	return owners
}

// walkDeclUses calls use for every object an identifier in decl refers to,
// generic instances resolved to their origin. A method's receiver clause
// is skipped: naming the receiver type is not a use of it.
func walkDeclUses(pkg *Package, decl ast.Decl, use func(types.Object)) {
	nodes := []ast.Node{decl}
	if fd, ok := decl.(*ast.FuncDecl); ok {
		nodes = []ast.Node{fd.Type}
		if fd.Body != nil {
			nodes = append(nodes, fd.Body)
		}
	}
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch o := pkg.Info.Uses[id].(type) {
				case nil:
				case *types.Func:
					use(o.Origin())
				case *types.Var:
					use(o.Origin())
				default:
					use(o)
				}
			}
			return true
		})
	}
}

// recvTypeName returns the base type name of a method's receiver; nil for
// anything that is not a method.
func recvTypeName(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// stdlibDynamic are the methods the standard library calls through its
// own interfaces on values the module hands it: fmt's Stringer, Formatter
// and error, errors' unwrapping, the encoders' marshalers and
// sort.Interface.
var stdlibDynamic = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalText", "UnmarshalText", "MarshalBinary", "UnmarshalBinary", "MarshalJSON", "UnmarshalJSON",
	"Len", "Less", "Swap",
}

// dynamicNames returns the names of the methods that can be called
// dynamically: every interface method the module's code uses, plus
// stdlibDynamic.
func dynamicNames(mod *Module) map[string]bool {
	names := map[string]bool{}
	for _, n := range stdlibDynamic {
		names[n] = true
	}
	for _, pkg := range mod.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					names[fn.Name()] = true
				}
			}
		}
	}
	return names
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		if recvTypeName(obj) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// qualifiedName renders obj as findings name it: "geom.Unit",
// "netem.(*Stream).Tick".
func qualifiedName(pkg *Package, obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return funcName(pkg.Types.Name(), fn)
	}
	return pkg.Types.Name() + "." + obj.Name()
}
