package handover

import (
	"math"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/optics"
)

// standbyPositions is one standby TX away from the primary's mount.
func standbyPositions() []geom.Vec3 {
	return []geom.Vec3{{X: 1.2, Y: 0.8, Z: link.CeilingHeight}}
}

// A standby built for a primary installation shares its receiver and
// nothing else: same RX hardware and mount, distinct TX hardware and TX
// position.
func TestArraySharesReceiver(t *testing.T) {
	const seed = 2
	primary := link.NewPlant(optics.Diverging10G16mm, seed)
	standby := StandbysFor(optics.Diverging10G16mm, seed, standbyPositions())[0]
	if primary.RXDev.Truth() != standby.RXDev.Truth() {
		t.Error("plants do not share the RX device")
	}
	if primary.RXWorldPose() != standby.RXWorldPose() {
		t.Error("plants do not share the RX mount")
	}
	if primary.TXDev.Truth() == standby.TXDev.Truth() {
		t.Error("plants share TX hardware")
	}
	if primary.TXMountTruth().Trans == standby.TXMountTruth().Trans {
		t.Error("plants share TX position")
	}
}

// Every TX of the deployments the §3 study and the core handover tests use
// — the primary and each standby — can be oracle-pointed at the default
// headset pose above receiver sensitivity, so a handover has somewhere to
// land.
func TestEachTXCanServeTheHeadset(t *testing.T) {
	const seed = 3
	plants := append([]*link.Plant{link.NewPlant(optics.Diverging10G16mm, seed)},
		StandbysFor(optics.Diverging10G16mm, seed, append(standbyPositions(), RingPositions(1, 1.4)...))...)
	for i, pl := range plants {
		v, err := pl.OracleAlignedVoltages()
		if err != nil {
			t.Fatalf("TX %d cannot point: %v", i, err)
		}
		pl.ApplyVoltages(v)
		if p := pl.ReceivedPowerDBm(); p < pl.Config.Transceiver.SensitivityDBm {
			t.Errorf("TX %d aligned power %.1f dBm below sensitivity", i, p)
		}
	}
}

// RingPositions spaces count mounts evenly on a ceiling circle around the
// primary, starting on +X.
func TestRingPositions(t *testing.T) {
	pos := RingPositions(4, 1.4)
	want := []geom.Vec3{
		geom.V(1.4, 0, link.CeilingHeight),
		geom.V(0, 1.4, link.CeilingHeight),
		geom.V(-1.4, 0, link.CeilingHeight),
		geom.V(0, -1.4, link.CeilingHeight),
	}
	if len(pos) != len(want) {
		t.Fatalf("len = %d, want %d", len(pos), len(want))
	}
	for i := range want {
		if !pos[i].NearlyEqual(want[i], 1e-12) {
			t.Errorf("position %d = %v, want %v", i, pos[i], want[i])
		}
		if r := math.Hypot(pos[i].X, pos[i].Y); math.Abs(r-1.4) > 1e-12 {
			t.Errorf("position %d at radius %v, want 1.4", i, r)
		}
	}
	if got := RingPositions(0, 1.4); len(got) != 0 {
		t.Errorf("RingPositions(0) = %v, want none", got)
	}
}
