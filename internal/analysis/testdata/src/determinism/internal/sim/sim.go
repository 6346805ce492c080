package sim

import (
	"math/rand"
	"os"
	"time"
)

// Bad reaches for every forbidden source of nondeterminism.
func Bad() time.Duration {
	start := time.Now()
	mode := os.Getenv("FIXTURE_MODE")
	if rand.Float64() > 0.5 && mode != "" {
		return 0
	}
	return time.Since(start)
}

// Good derives its draw from the seed alone.
func Good(seed int64) float64 {
	return float64(uint64(seed)*6364136223846793005>>11) / (1 << 53)
}

// Tolerated carries a justification.
func Tolerated() time.Time {
	//cyclops:deterministic-ok wall-clock is only logged here, never fed into results
	return time.Now()
}
