package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// blockStateDepth is the k of TestBlockStateSmallScope: the most
// occlusion episodes one enumerated schedule holds.
const blockStateDepth = 2

// TestBlockStateSmallScope checks the slot engine's blocked-episode
// bookkeeping (blockState) exhaustively at small scope, on a static trace
// that is always aligned, so that every off slot is a blocked one. It
// enumerates every schedule of up to blockStateDepth hard-edged
// occlusions on the 1 ms slot grid: each episode is preceded by a clear
// gap (the first may be empty), and episode lengths and gaps are 1,
// D−1, D, D+1, R−1, R or R+1 slots, for a HandoverDark of D = 3 and a
// Relock of R = 6 slots. Each schedule runs at TXCount 1 and 2 with
// StandbyBlockProb 0 and 1. For each run:
//
//   - simulate and simulatePerSlotReference agree on every result field,
//     the sink's verdict stream and every metric;
//   - with two TXs and a standby that is never blocked, every episode is
//     a handover and none is an outage;
//   - with one TX there are no handovers, and Outages is the number of
//     maximal blocked spells.
func TestBlockStateSmallScope(t *testing.T) {
	const dark, relock = 3, 6 // slots
	var lengths []time.Duration
	for _, slots := range []int{1, dark - 1, dark, dark + 1, relock - 1, relock, relock + 1} {
		lengths = append(lengths, time.Duration(slots)*time.Millisecond)
	}
	// Long enough for the longest schedule, its re-lock tail and a clear
	// slot after it.
	longest := time.Duration(2*blockStateDepth*(relock+1)+relock) * time.Millisecond
	tr := staticTrace(int(longest/trace.SampleInterval) + 2)

	var wins []fault.Window
	schedules := 0
	var walk func(at time.Duration, leads []time.Duration)
	walk = func(at time.Duration, leads []time.Duration) {
		checkBlockState(t, tr, wins, dark*time.Millisecond, relock*time.Millisecond)
		schedules++
		if len(wins) == blockStateDepth {
			return
		}
		for _, gap := range leads {
			for _, n := range lengths {
				start := at + gap
				wins = append(wins, fault.Window{Kind: fault.Occlusion, Start: start, End: start + n, DepthDB: 30})
				walk(start+n, lengths)
				wins = wins[:len(wins)-1]
			}
		}
	}
	walk(0, append([]time.Duration{0}, lengths...))
	// The first episode's gap has one more choice (none) than the rest.
	want, n := 1, len(lengths)+1
	for d := 1; d <= blockStateDepth; d++ {
		n *= len(lengths) // the episode's length
		want += n
		n *= len(lengths) // the next episode's gap
	}
	if schedules != want {
		t.Fatalf("enumerated %d schedules, want %d", schedules, want)
	}
}

// checkBlockState runs one enumerated schedule through the engine and the
// per-slot reference at every TXCount and StandbyBlockProb the small-scope
// test covers, and checks the invariants TestBlockStateSmallScope lists.
func checkBlockState(t *testing.T, tr trace.Trace, wins []fault.Window, dark, relock time.Duration) {
	t.Helper()
	sched := fault.Schedule{Seed: 1, Windows: wins}
	for _, txCount := range []int{1, 2} {
		for _, prob := range []float64{0, 1} {
			p := PaperChaos25G()
			p.HandoverDark, p.Relock = dark, relock
			p.TXCount, p.StandbyBlockProb = txCount, prob
			res, verdicts, snap := blockRun(simulate, tr, p, &sched)
			wantRes, wantVerdicts, wantSnap := blockRun(simulatePerSlotReference, tr, p, &sched)
			where := func() string { return fmt.Sprintf("windows %v, TX %d, standby block prob %v", wins, txCount, prob) }
			if res != wantRes || verdicts != wantVerdicts || !reflect.DeepEqual(snap, wantSnap) {
				t.Fatalf("%s: engine differs from per-slot reference:\n%+v\n%+v\n%s\n%s\n%s\n%s",
					where(), res, wantRes, verdicts, wantVerdicts, snap.Exposition(), wantSnap.Exposition())
			}
			if res.OffSlots != res.BlockedSlots {
				t.Fatalf("%s: %d off slots but %d blocked on an aligned trace", where(), res.OffSlots, res.BlockedSlots)
			}
			if txCount == 2 && prob == 0 && (res.Handovers != len(wins) || res.Outages != 0) {
				t.Fatalf("%s: %d handovers and %d outages over %d episodes with a clear standby",
					where(), res.Handovers, res.Outages, len(wins))
			}
			spells := len(strings.Fields(strings.ReplaceAll(verdicts, ".", " ")))
			if txCount == 1 && (res.Handovers != 0 || res.Outages != spells) {
				t.Fatalf("%s: one TX made %d handovers and %d outages over %d blocked spells (%s)",
					where(), res.Handovers, res.Outages, spells, verdicts)
			}
		}
	}
}

// blockRun runs engine over tr under sched and returns the result, the
// sink's verdict stream ('x' off, '.' on, one byte per slot) and the
// snapshot of the run's registry.
func blockRun(engine func(trace.Trace, ChaosParams, slotArms) ChaosTraceResult,
	tr trace.Trace, p ChaosParams, sched *fault.Schedule) (ChaosTraceResult, string, obs.Snapshot) {
	reg := obs.NewRegistry()
	var verdicts []byte
	arms := slotArms{sched: sched, om: fault.NewOutageMetrics(reg), sink: func(_, n int, off bool) {
		v := byte('.')
		if off {
			v = 'x'
		}
		for ; n > 0; n-- {
			verdicts = append(verdicts, v)
		}
	}}
	if p.TXCount > 1 {
		arms.hm = fault.NewHandoverMetrics(reg)
	}
	res := engine(tr, p, arms)
	return res, string(verdicts), reg.Snapshot()
}
