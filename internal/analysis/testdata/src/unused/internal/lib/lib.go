// Package lib exercises the unused rule: reached exports, dead ones, and
// the //cyclops:keep exemption.
package lib

import "fmt"

// Used is called from the module's command.
func Used() Celsius { return Celsius(helper() + Chained()) }

func helper() float64 { return 1 }

// Chained is reached only through Used.
func Chained() float64 { return 2 }

// Dead has no caller at all; DeadCallee is reached only from it.
func Dead() float64 { return DeadCallee() }

// DeadCallee is dead with its only caller.
func DeadCallee() float64 { return 3 }

// TestOnly is called only from lib_test.go, which the loader skips.
func TestOnly() float64 { return 4 }

// Recursive only calls itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// NestedOnly is called only from tool/, a nested module.
func NestedOnly() {}

//cyclops:keep
func Reasonless() {}

//cyclops:keep fixture API kept on purpose
func Kept() float64 { return KeptCallee() }

// KeptCallee is reached through the kept Kept.
func KeptCallee() float64 { return 5 }

// Celsius is reached through Used; fmt calls String dynamically.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Kelvin has no caller.
func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 }

// Ghost is never named, so its methods are reported through it.
type Ghost struct{}

func (Ghost) String() string { return "boo" }

// Haunt is dead with its type.
func (Ghost) Haunt() {}

// Shape is the interface the command calls Area through.
type Shape interface{ Area() float64 }

// Square satisfies Shape: Area is reached through the interface.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }
