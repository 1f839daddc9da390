package core

import (
	"testing"

	"dronedse/components"
)

func TestFeasibilityChecks(t *testing.T) {
	// A sane design: no issues.
	sane := mustResolve(t, DefaultSpec())
	for _, is := range sane.Feasibility() {
		t.Errorf("default design flagged: %v", is)
	}
	// A tiny racing battery hauling a loaded 200 mm frame: the small 5"
	// props demand huge currents the 1000 mAh pack cannot supply.
	marginal := Spec{WheelbaseMM: 200, Cells: 2, CapacityMah: 1000, TWR: 2,
		PayloadG: 600,
		Compute:  components.AdvancedComputeTier, ESCClass: components.LongFlight}
	d, err := Resolve(marginal)
	if err != nil {
		t.Fatal(err)
	}
	issues := d.Feasibility()
	has := func(want FeasibilityIssue) bool {
		for _, is := range issues {
			if is == want {
				return true
			}
		}
		return false
	}
	if !has(BatteryCRating) {
		t.Errorf("1000 mAh feeding a loaded 200 mm racer should exceed any C rating (needs %.0fC)", d.RequiredCRating())
	}
	if has(BatteryCRating) != (d.RequiredCRating() > maxSurveyC) {
		t.Error("RequiredCRating inconsistent with the flag")
	}
	if !has(ShortFlight) {
		t.Errorf("this configuration hovers %.1f min and should be flagged short-flight", d.HoverFlightTimeMin())
	}
}

func TestFeasibilityStrings(t *testing.T) {
	for _, is := range []FeasibilityIssue{BatteryCRating, ESCOverSpec, ShortFlight} {
		if is.String() == "" {
			t.Error("issue missing a name")
		}
	}
}

func TestParetoPayloadFrontier(t *testing.T) {
	spec := DefaultSpec()
	pts := mustFrontier(t, spec, []float64{0, 100, 200, 400, 800})
	if len(pts) < 3 {
		t.Fatalf("frontier too small: %d points", len(pts))
	}
	// Frontier is sorted by payload and strictly worsening in flight time
	// (more payload can never fly longer at the same wheelbase).
	for i := 1; i < len(pts); i++ {
		if pts[i].Objective <= pts[i-1].Objective {
			t.Fatal("frontier not sorted by payload")
		}
		if pts[i].FlightMin >= pts[i-1].FlightMin {
			t.Errorf("payload %v flies %.1f min, no worse than lighter %v at %.1f — not a frontier",
				pts[i].Objective, pts[i].FlightMin, pts[i-1].Objective, pts[i-1].FlightMin)
		}
	}
}

func TestParetoFilterDominance(t *testing.T) {
	pts := []ParetoPoint{
		{Objective: 1, FlightMin: 10},
		{Objective: 1, FlightMin: 8}, // dominated (same payload, less time)
		{Objective: 2, FlightMin: 9},
		{Objective: 2, FlightMin: 11}, // dominates everything at obj<=2
	}
	out := paretoFilter(pts)
	if len(out) != 1 || out[0].FlightMin != 11 {
		t.Errorf("filter kept %+v", out)
	}
}

// TestTWRSweep verifies the §7 claim the repository was asked to release:
// at higher TWR the computation share only shrinks, so TWR 2 bounds it.
func TestTWRSweep(t *testing.T) {
	spec := DefaultSpec()
	spec.Compute = components.AdvancedComputeTier
	pts, err := TWRSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	if pts[0].TWR != 2 {
		t.Fatal("sweep must start at the TWR 2 bound")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ComputeShareHoverPct >= pts[i-1].ComputeShareHoverPct {
			t.Errorf("compute share rose from TWR %v to %v", pts[i-1].TWR, pts[i].TWR)
		}
		if pts[i].HoverPowerW <= pts[i-1].HoverPowerW {
			t.Errorf("hover power fell with TWR %v", pts[i].TWR)
		}
		if pts[i].TotalWeightG <= pts[i-1].TotalWeightG {
			t.Errorf("weight fell with TWR %v (bigger motors/ESCs expected)", pts[i].TWR)
		}
	}
}

// TestSensorPayloadStudy verifies the §3.1 external-sensor squeeze: heavy
// self-powered LiDARs shrink the compute share and cost flight time.
func TestSensorPayloadStudy(t *testing.T) {
	spec := Spec{WheelbaseMM: 800, Cells: 6, CapacityMah: 8000, TWR: 2,
		Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight}
	sensors := []struct {
		Name    string
		WeightG float64
	}{
		{"Ultra Puck", 925},
		{"YellowScan Surveyor", 1600},
	}
	pts, err := SensorPayloadStudy(spec, sensors)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("study produced %d rows", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ComputeShareHoverPct >= pts[i-1].ComputeShareHoverPct {
			t.Errorf("%s did not shrink the compute share", pts[i].SensorName)
		}
		if pts[i].FlightMin >= pts[i-1].FlightMin {
			t.Errorf("%s did not cost flight time", pts[i].SensorName)
		}
	}
}
