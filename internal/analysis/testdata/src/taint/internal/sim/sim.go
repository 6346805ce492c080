// Package sim is inside the deterministic scope (all of internal/ is).
// It contains no forbidden source itself — the nondeterminism it reaches
// lives two hops away, outside the scope, which is exactly what the
// determinism-taint rule exists to catch.
package sim

import (
	"fixture/geomx"
)

// Run reaches time.Now through geomx.Jitter → util.Stamp.
func Run() float64 {
	return geomx.Jitter()
}

// UsesSorted reaches a map range one hop away.
func UsesSorted() []int {
	return geomx.Sorted(map[int]int{1: 1})
}

// UsesFn receives a function value built outside the scope; the ref edge
// inside geomx.MakeFn keeps the taint flowing.
func UsesFn() float64 {
	return geomx.MakeFn()()
}

// Calm reaches only the annotated (suppressed) source: no finding.
func Calm() float64 {
	return geomx.Settle()
}

// UsesNoise reaches a seeded math/rand constructor one hop away.
func UsesNoise() float64 {
	return geomx.Noise(1)
}
