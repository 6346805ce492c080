// Package main is a nested module: its uses of the parent module's
// exports do not count.
package main

import "fixture/internal/lib"

func main() { lib.NestedOnly() }
