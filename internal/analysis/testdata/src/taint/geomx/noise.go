package geomx

import "math/rand"

// Noise seeds its own math/rand generator. The seeded constructor is a
// source too: internal/xrand is the scope's one generator.
func Noise(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}
