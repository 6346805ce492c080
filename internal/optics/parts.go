package optics

import "time"

// Transceiver models an SFP optical transceiver: launch power, receiver
// sensitivity, and the line/goodput rates observed through a NIC.
type Transceiver struct {
	Name string
	// LineRateGbps is the nominal serial rate.
	LineRateGbps float64
	// OptimalGoodputGbps is the iperf-style TCP goodput the paper
	// observed when the link is cleanly connected (9.4 for 10G,
	// 23.5 for 25G).
	OptimalGoodputGbps float64
	// TxPowerDBm is the launch power into the fiber.
	TxPowerDBm float64
	// SensitivityDBm is the minimum received power for error-free
	// operation; below it the SFP declares loss of signal.
	SensitivityDBm float64
	// RelockDelay is how long the SFP+NIC take to report the link up
	// again after light returns following a loss of signal. The paper
	// observes "a few seconds" (§5.3).
	RelockDelay time.Duration
}

// Amplifier models an inline EDFA used, as in the paper, only to
// compensate for the coupling loss of capturing into a fiber rather than
// an exposed photodetector.
type Amplifier struct {
	Name   string
	GainDB float64
}

// Collimator describes launch/capture optics.
type Collimator struct {
	Name string
	// LaunchRadius is the 1/e² beam radius at the output for a
	// launch-side part, meters.
	LaunchRadius float64
	// ApertureRadius is the clear capture radius for a receive-side
	// part, meters.
	ApertureRadius float64
	// Adjustable indicates an adjustable-focus part that can set a
	// controlled divergence (CFC-2X-C, C40FC-C).
	Adjustable bool
}

// GalvoSpec describes a galvo scanning system.
type GalvoSpec struct {
	Name string
	// BeamAperture is the maximum beam diameter the mirrors pass, meters.
	BeamAperture float64
	// AngularAccuracy is the RMS pointing error of the closed-loop
	// servo, radians.
	AngularAccuracy float64
	// StepLatency is the small-angle settle time.
	StepLatency time.Duration
	// VoltsPerDegree is the command scale (mechanical degrees per volt
	// is 1/VoltsPerDegree). The optical deflection is twice mechanical.
	VoltsPerDegree float64
	// VoltageRange is the symmetric command range ±VoltageRange.
	VoltageRange float64
}

// DAQSpec describes the USB data-acquisition device driving the galvo
// power supplies.
type DAQSpec struct {
	Name string
	// Bits is the DAC resolution.
	Bits int
	// OutputRange is the symmetric output ±OutputRange volts.
	OutputRange float64
	// WriteLatency is the host→analog settling latency per update; the
	// paper measures 1–2 ms dominated by the DAQ conversion.
	WriteLatency time.Duration
}

// VoltageStep returns the smallest voltage increment the DAC can produce.
func (d DAQSpec) VoltageStep() float64 {
	return 2 * d.OutputRange / float64(int64(1)<<uint(d.Bits))
}

// The part catalog below mirrors Appendix A of the paper.
var (
	// SFP10GZR is the Cisco SFP-10G-ZR100 1550 nm transceiver [14]:
	// 0–4 dBm launch, −25 dBm sensitivity.
	SFP10GZR = Transceiver{
		Name:               "SFP-10G-ZR 1550nm",
		LineRateGbps:       10.3125,
		OptimalGoodputGbps: 9.4,
		TxPowerDBm:         0,
		SensitivityDBm:     -25,
		RelockDelay:        3 * time.Second,
	}

	// SFP28LR is the 25G SFP28 LR [1] used (with Intel XXV710 NICs)
	// because SFP28-ER-compatible NICs do not exist; link budget
	// 12–18 dB. We model the best of that range.
	SFP28LR = Transceiver{
		Name:               "SFP28-25G-LR",
		LineRateGbps:       25.78,
		OptimalGoodputGbps: 23.5,
		TxPowerDBm:         0,
		SensitivityDBm:     -18,
		RelockDelay:        3 * time.Second,
	}

	// EDFA is the erbium-doped fiber amplifier [34] compensating the
	// diverging beam's coupling loss.
	EDFA = Amplifier{Name: "EDFA 1550nm", GainDB: 20}

	// BE02Expander is the ThorLabs BE02-05-C beam expander used for the
	// wide collimated beam option (20 mm output).
	BE02Expander = Collimator{Name: "BE02-05-C", LaunchRadius: MM(10)}

	// CFC2X is the ThorLabs CFC-2X-C adjustable aspheric collimator used
	// at the TX for the diverging beam; ~4 mm launch aperture.
	CFC2X = Collimator{Name: "CFC-2X-C", LaunchRadius: MM(2), Adjustable: true}

	// F810FC is the ThorLabs F810FC-1550 receive collimator (Ø1 inch
	// optic, ~24 mm clear aperture).
	F810FC = Collimator{Name: "F810FC-1550", ApertureRadius: MM(12)}

	// C40FC is the ThorLabs C40FC-C adjustable-focus collimator used at
	// both ends of the 25G link for better diverging-beam capture.
	C40FC = Collimator{Name: "C40FC-C", LaunchRadius: MM(2), ApertureRadius: MM(12), Adjustable: true}

	// GVS102 is the ThorLabs 2-axis large-beam galvo system: 10 mm beam,
	// 10 µrad accuracy, 300 µs small-angle step response, 0.5 V/°.
	GVS102 = GalvoSpec{
		Name:            "GVS102",
		BeamAperture:    MM(10),
		AngularAccuracy: 10e-6,
		StepLatency:     300 * time.Microsecond,
		VoltsPerDegree:  0.5,
		VoltageRange:    10,
	}

	// USB1608G is the MCC USB-1608G DAQ [5] driving the galvo PSUs.
	USB1608G = DAQSpec{
		Name:         "USB-1608G",
		Bits:         16,
		OutputRange:  10,
		WriteLatency: 1500 * time.Microsecond,
	}
)
