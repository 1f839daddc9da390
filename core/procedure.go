package core

import (
	"errors"
	"fmt"
	"strings"

	"dronedse/components"
	"dronedse/propulsion"
)

// Requirements describe a target application the way Figure 12's procedure
// starts: what must the drone carry and compute, and how long must it fly?
type Requirements struct {
	// ExtraSensors to carry (Table 4 rows; self-powered units contribute
	// weight only).
	ExtraSensors []components.Board
	// Compute is the computation the application needs on board.
	Compute components.ComputeTier
	// PayloadG is additional payload.
	PayloadG float64
	// MinFlightMin is the required hovering endurance.
	MinFlightMin float64
	// MaxWeightG caps the takeoff weight (0 = unconstrained).
	MaxWeightG float64
}

// Recommendation is the procedure's output: the chosen design plus the
// quantified compute footprint — "Total Gained Flight Time" included.
type Recommendation struct {
	Design Design
	// FlightMin is the hovering flight time.
	FlightMin float64
	// ComputeSharePct is the Equation 6 footprint.
	ComputeSharePct float64
	// GainedByHalvingComputeMin quantifies the optimization opportunity
	// (Equation 7): flight time gained if the application's compute power
	// were halved (e.g. by the §5 SLAM offload).
	GainedByHalvingComputeMin float64
	// Steps records the Figure 12 walk for the report.
	Steps []string
}

// ErrNoFeasibleDesign reports that no frame class meets the requirements.
var ErrNoFeasibleDesign = fmt.Errorf("core: no feasible design meets the requirements")

// RunProcedure walks Figure 12: start with a small frame, add the required
// sensors/compute/payload weight (growing the frame when needed), select a
// battery, close the weight loop, and compute flight time and the compute
// power footprint. It returns the lightest design meeting the endurance
// requirement, ErrNoFeasibleDesign when no frame class meets it, or the
// spec's validation error, found at the first frame class before its grid
// fans out.
func RunProcedure(req Requirements) (Recommendation, error) {
	var rec Recommendation
	log := func(format string, args ...interface{}) {
		rec.Steps = append(rec.Steps, fmt.Sprintf(format, args...))
	}

	sensorsW, sensorsG := 0.0, 0.0
	for _, b := range req.ExtraSensors {
		sensorsG += b.WeightG
		if !b.SelfPowered {
			sensorsW += b.PowerW
		}
	}
	log("requirements: %.1f W / %.0f g compute, %.0f g sensors (%.1f W), %.0f g payload, >= %.0f min",
		req.Compute.PowerW, req.Compute.WeightG, sensorsG, sensorsW, req.PayloadG, req.MinFlightMin)

	// "Start with a small frame": walk the frame classes upward.
	for _, wb := range []float64{100, 200, 300, 450, 600, 800, 1000} {
		spec := Spec{
			WheelbaseMM: wb, TWR: 2, Cells: 3, CapacityMah: 1000,
			Compute:  req.Compute,
			SensorsW: sensorsW, SensorsG: sensorsG,
			PayloadG: req.PayloadG,
			ESCClass: components.LongFlight,
		}
		best, err := BestConfig(spec, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 500)
		if errors.Is(err, ErrNoConverge) {
			log("%.0f mm: infeasible (weight closure diverges)", wb)
			continue
		}
		if err != nil {
			return rec, err
		}
		ft := best.HoverFlightTimeMin()
		if req.MaxWeightG > 0 && best.TotalG > req.MaxWeightG {
			log("%.0f mm: best config weighs %.0f g > cap %.0f g", wb, best.TotalG, req.MaxWeightG)
			continue
		}
		if ft < req.MinFlightMin {
			log("%.0f mm: best %.1f min < required %.0f min; larger frame", wb, ft, req.MinFlightMin)
			continue
		}
		if len(best.Feasibility()) > 0 {
			log("%.0f mm: flagged %v; larger frame", wb, best.Feasibility())
			continue
		}
		log("%.0f mm: %dS %.0f mAh, %.0f g, %.1f min — selected",
			wb, best.Spec.Cells, best.Spec.CapacityMah, best.TotalG, ft)
		rec.Design = best
		rec.FlightMin = ft
		rec.ComputeSharePct = best.ComputeSharePct(propulsion.HoverLoadFraction)
		if gain, err := GainedFlightTimeMin(best, req.Compute.PowerW/2, req.Compute.WeightG, propulsion.HoverLoadFraction); err == nil {
			rec.GainedByHalvingComputeMin = gain
		}
		log("compute footprint %.1f%% of hover power; halving compute power gains %+.1f min",
			rec.ComputeSharePct, rec.GainedByHalvingComputeMin)
		return rec, nil
	}
	return rec, ErrNoFeasibleDesign
}

// Report renders the procedure walk.
func (r Recommendation) Report() string {
	return strings.Join(r.Steps, "\n")
}
