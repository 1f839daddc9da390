package core

import (
	"errors"
	"strings"
	"testing"

	"dronedse/components"
)

// table4Row returns the Table 4 row with the given name.
func table4Row(t *testing.T, name string) components.Board {
	t.Helper()
	for _, b := range components.Table4() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("Table 4 has no %q", name)
	return components.Board{}
}

func TestProcedureBasicApplication(t *testing.T) {
	// A mapping application: FPV camera + 20 W compute, 15 minutes.
	cam := table4Row(t, "RunCam Night Eagle 2")
	rec, err := RunProcedure(Requirements{
		ExtraSensors: []components.Board{cam},
		Compute:      components.AdvancedComputeTier,
		MinFlightMin: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.FlightMin < 15 {
		t.Errorf("recommended design flies %.1f min < 15", rec.FlightMin)
	}
	if rec.ComputeSharePct <= 0 || rec.ComputeSharePct >= 40 {
		t.Errorf("compute share = %v%%", rec.ComputeSharePct)
	}
	if rec.GainedByHalvingComputeMin <= 0 {
		t.Error("halving 20 W of compute must gain flight time")
	}
	if !strings.Contains(rec.Report(), "selected") {
		t.Errorf("report missing selection:\n%s", rec.Report())
	}
}

func TestProcedureGrowsFrameForLiDAR(t *testing.T) {
	// A LiDAR survey drone (Ultra Puck, 925 g, self-powered): small
	// frames can't lift it with endurance; the procedure must climb to a
	// large class.
	lidar := table4Row(t, "Ultra Puck")
	light, err := RunProcedure(Requirements{
		Compute:      components.BasicComputeTier,
		MinFlightMin: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := RunProcedure(Requirements{
		ExtraSensors: []components.Board{lidar},
		Compute:      components.BasicComputeTier,
		MinFlightMin: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Design.Spec.WheelbaseMM <= light.Design.Spec.WheelbaseMM {
		t.Errorf("LiDAR drone wheelbase %.0f not above bare drone %.0f",
			heavy.Design.Spec.WheelbaseMM, light.Design.Spec.WheelbaseMM)
	}
	// Self-powered: the LiDAR must not add compute share, only weight.
	if heavy.Design.Spec.SensorsW != 0 {
		t.Error("self-powered LiDAR charged to the main pack")
	}
}

func TestProcedureImpossibleRequirements(t *testing.T) {
	_, err := RunProcedure(Requirements{
		Compute:      components.AdvancedComputeTier,
		PayloadG:     5000,
		MinFlightMin: 60,
	})
	if !errors.Is(err, ErrNoFeasibleDesign) {
		t.Errorf("err = %v, want ErrNoFeasibleDesign", err)
	}
}

func TestProcedureWeightCap(t *testing.T) {
	capped, err := RunProcedure(Requirements{
		Compute:      components.BasicComputeTier,
		MinFlightMin: 10,
		MaxWeightG:   900,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Design.TotalG > 900 {
		t.Errorf("weight cap violated: %.0f g", capped.Design.TotalG)
	}
}
