package analysis

import (
	"reflect"
	"testing"
)

// nodeByName finds a node by its qualified Name; nil when absent.
func nodeByName(g *CallGraph, name string) *CGNode {
	for _, n := range g.Order {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// TestCallGraph pins the resolution semantics the interprocedural rules
// are founded on: method calls resolve through the type checker, a
// mention outside call position becomes a ref edge, unresolvable calls
// become dynamic records, closures attribute to the enclosing
// declaration, and forbidden sources are recorded on their node.
func TestCallGraph(t *testing.T) {
	mod := loadFixture(t, "callgraph")
	g := mod.CallGraph()

	if again := mod.CallGraph(); again != g {
		t.Error("CallGraph() did not cache: two calls returned distinct graphs")
	}

	node := func(name string) *CGNode {
		t.Helper()
		n := nodeByName(g, name)
		if n == nil {
			var names []string
			for _, n := range g.Order {
				names = append(names, n.Name())
			}
			t.Fatalf("no node %q; have %v", name, names)
		}
		return n
	}

	edges := func(n *CGNode) (calls, refs []string) {
		for _, e := range n.Calls {
			name := g.Nodes[e.To].Name()
			if e.Ref {
				refs = append(refs, name)
			} else {
				calls = append(calls, name)
			}
		}
		return calls, refs
	}

	// Caller: a method call, a direct call, and one ref edge (return F).
	calls, refs := edges(node("cg.Caller"))
	if want := []string{"cg.(*T).M", "cg.F"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("Caller calls = %v, want %v", calls, want)
	}
	if want := []string{"cg.F"}; !reflect.DeepEqual(refs, want) {
		t.Errorf("Caller refs = %v, want %v", refs, want)
	}
	if n := node("cg.Caller"); len(n.Dynamic) != 0 || len(n.Sources) != 0 {
		t.Errorf("Caller has %d dynamic, %d sources; want none", len(n.Dynamic), len(n.Sources))
	}

	// HasClosure: the literal's call to F counts against HasClosure; the
	// immediately-invoked f() is not a dynamic record... but f() is a call
	// through a func variable, which IS dynamic — pin exactly what happens.
	calls, _ = edges(node("cg.HasClosure"))
	if want := []string{"cg.F"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("HasClosure calls = %v, want %v (closure attribution)", calls, want)
	}

	// Dyn: two unresolvable calls, zero static edges.
	dyn := node("cg.Dyn")
	if len(dyn.Calls) != 0 {
		t.Errorf("Dyn has %d static edges, want 0", len(dyn.Calls))
	}
	var descs []string
	for _, d := range dyn.Dynamic {
		descs = append(descs, d.Desc)
	}
	want := []string{"interface call (Writer).Write", "call through func value f"}
	if !reflect.DeepEqual(descs, want) {
		t.Errorf("Dyn dynamic = %v, want %v", descs, want)
	}

	// Src: a clock read and a map range, in source order.
	src := node("cg.Src")
	var cats []SourceCat
	for _, s := range src.Sources {
		cats = append(cats, s.Cat)
	}
	if wantCats := []SourceCat{SrcClock, SrcMapRange}; !reflect.DeepEqual(cats, wantCats) {
		t.Errorf("Src sources = %v, want %v", cats, wantCats)
	}
}
