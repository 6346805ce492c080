package main

import (
	"fmt"
	"reflect"
)

// The paper's §5.4 trace-driven availability: a 98.6 % mean over a
// per-trace range of 95–99.98 %.
const (
	paperMeanPct = 98.6
	paperMinPct  = 95.0
	paperMaxPct  = 99.98
)

// sameSummary requires got to be identical to want, a summary of the same
// program and seed, and names the first field that differs. A traced
// replay that diverges from the untraced pass would be timing a different
// program.
func sameSummary(wantName string, want, got summary) error {
	if path := firstDiff("", reflect.ValueOf(want), reflect.ValueOf(got)); path != "" {
		return fmt.Errorf("%s differs from %s", path, wantName)
	}
	return nil
}

// firstDiff descends through struct fields and returns the path of the
// first one whose values differ, or "" when a and b are deeply equal.
func firstDiff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return path + " (type)"
	}
	if a.Kind() != reflect.Struct {
		if reflect.DeepEqual(a.Interface(), b.Interface()) {
			return ""
		}
		if a.Kind() == reflect.Slice || a.Kind() == reflect.Map {
			return path
		}
		return fmt.Sprintf("%s (%v, want %v)", path, b, a)
	}
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		if d := firstDiff(name, a.Field(i), b.Field(i)); d != "" {
			return d
		}
	}
	return ""
}

// checkSlots requires a slot total to equal units × slotsPerUnit and the
// off and blocked slots to fit inside it.
func checkSlots(slots, units, slotsPerUnit, off, blocked int) error {
	if want := units * slotsPerUnit; slots != want {
		return fmt.Errorf("sim.slots = %d, want %d (%d × %d)", slots, want, units, slotsPerUnit)
	}
	if off < 0 || off > slots {
		return fmt.Errorf("sim.off_slots = %d outside [0, %d]", off, slots)
	}
	if blocked < 0 || blocked > slots {
		return fmt.Errorf("sim.blocked_slots = %d outside [0, %d]", blocked, slots)
	}
	return nil
}

// checkPaperRange requires the clean corpus's mean availability to lie in
// the paper's per-trace range.
func checkPaperRange(pct float64) error {
	if pct < paperMinPct || pct > paperMaxPct {
		return fmt.Errorf("corpus-clean availability %.3f %% outside the paper's %.2f-%.2f %% range (paper mean %.1f %%)",
			pct, paperMinPct, paperMaxPct, paperMeanPct)
	}
	return nil
}
