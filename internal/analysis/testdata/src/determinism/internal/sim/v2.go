package sim

import "math/rand/v2"

// Pick draws from math/rand/v2, which the ban covers too.
func Pick(n int) int { return rand.IntN(n) }
