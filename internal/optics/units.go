// Package optics models the radiometry of the Cyclops FSO link: Gaussian
// beam propagation, aperture capture, fiber-coupling losses, dBm link
// budgets, and a catalog of the commodity parts the paper's prototype used
// (SFPs, EDFA, collimators, galvo systems).
//
// The model is calibrated so that the measured characteristics of the
// paper's prototype emerge from the same mechanisms the paper describes:
//
//   - A collimated beam couples efficiently (high peak power) but tolerates
//     only ~2 mrad of angular misalignment, because every ray arrives
//     parallel to the beam axis and the fiber-coupling acceptance is narrow.
//   - A diverging beam pays ~25 dB of coupling loss but tolerates several
//     times more movement: transmitter rotation only shifts intensity
//     (local ray directions at a fixed aperture do not change when the
//     source rotates), and the wider angular spectrum of the diverging
//     wavefront widens the receiver's effective angular acceptance.
package optics

import "math"

// DBmToMilliwatt converts optical power in dBm to milliwatts.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// FractionToDB converts a power fraction (0,1] to a loss in dB (positive
// number = loss). A zero or negative fraction maps to +inf loss.
func FractionToDB(frac float64) float64 {
	if frac <= 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(frac)
}

// Mrad converts milliradians to radians.
func Mrad(m float64) float64 { return m * 1e-3 }

// ToMrad converts radians to milliradians.
func ToMrad(rad float64) float64 { return rad * 1e3 }

// MM converts millimeters to meters.
func MM(mm float64) float64 { return mm * 1e-3 }

// ToMM converts meters to millimeters.
func ToMM(m float64) float64 { return m * 1e3 }
