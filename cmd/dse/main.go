// Command dse explores the drone design space interactively from the
// command line: given a wheelbase, battery configuration, and compute
// board, it resolves the full design (Equation 1 closure) and reports
// weight breakdown, power, flight time, and the compute power footprint —
// the Figure 12 procedure as a tool.
//
// Usage:
//
//	dse -wheelbase 450 -cells 3 -capacity 5000 -compute 20 -computeweight 85
//	dse -wheelbase 450 -best            # search cells x capacity for max flight time
//	dse -wheelbase 450 -sweep           # print the battery sweep series
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"dronedse/components"
	"dronedse/core"
	"dronedse/parallelx"
	"dronedse/propulsion"
)

func main() {
	wheelbase := flag.Float64("wheelbase", 450, "frame wheelbase in mm (40-1100)")
	cells := flag.Int("cells", 3, "battery cell count (1-6)")
	capacity := flag.Float64("capacity", 3000, "battery capacity in mAh")
	twr := flag.Float64("twr", 2, "thrust-to-weight ratio target")
	computeW := flag.Float64("compute", 3, "compute board power in W")
	computeG := flag.Float64("computeweight", 20, "compute board weight in g")
	sensorsW := flag.Float64("sensorsw", 0, "extra sensor power in W")
	sensorsG := flag.Float64("sensorsg", 0, "extra sensor weight in g")
	payload := flag.Float64("payload", 0, "payload weight in g")
	best := flag.Bool("best", false, "search cells x capacity for the longest flight")
	sweep := flag.Bool("sweep", false, "print the 1000-8000 mAh battery sweep")
	pareto := flag.Bool("pareto", false, "print the payload vs flight-time Pareto frontier")
	require := flag.Float64("require", 0, "run the Figure 12 procedure: find the smallest frame meeting this flight time (min)")
	procs := flag.Int("procs", runtime.NumCPU(), "worker pool size for sweeps and searches (1 = serial)")
	flag.Parse()
	parallelx.SetPoolSize(*procs)

	spec := core.Spec{
		WheelbaseMM: *wheelbase,
		Cells:       *cells,
		CapacityMah: *capacity,
		TWR:         *twr,
		Compute: components.ComputeTier{
			Name: "custom", PowerW: *computeW, WeightG: *computeG,
		},
		SensorsW: *sensorsW,
		SensorsG: *sensorsG,
		PayloadG: *payload,
		ESCClass: components.LongFlight,
	}

	switch {
	case *require > 0:
		rec, err := core.RunProcedure(core.Requirements{
			Compute: components.ComputeTier{
				Name: "custom", PowerW: *computeW, WeightG: *computeG,
			},
			PayloadG:     *payload,
			MinFlightMin: *require,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			fmt.Println(rec.Report())
			os.Exit(1)
		}
		fmt.Println(rec.Report())
		fmt.Println()
		report(rec.Design)
	case *pareto:
		pts, err := core.ParetoPayloadFrontier(spec, []float64{0, 100, 200, 300, 500, 750, 1000, 1500})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		fmt.Println("payload(g)  best config      weight(g)  flight(min)")
		for _, pt := range pts {
			fmt.Printf("%9.0f  %dS %6.0f mAh  %9.0f  %11.1f\n",
				pt.Objective, pt.Design.Spec.Cells, pt.Design.Spec.CapacityMah,
				pt.Design.TotalG, pt.FlightMin)
		}
	case *best:
		d, err := core.BestConfig(spec, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 250)
		if errors.Is(err, core.ErrNoConverge) {
			fmt.Fprintln(os.Stderr, "dse: no feasible configuration")
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		fmt.Printf("best configuration: %dS %.0f mAh\n", d.Spec.Cells, d.Spec.CapacityMah)
		report(d)
	case *sweep:
		pts, err := core.SweepCapacity(spec, 1000, 8000, 250)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		fmt.Println("capacity(mAh)  weight(g)  hoverP(W)  maneuverP(W)  flight(min)  computeShare(%)")
		for _, pt := range pts {
			fmt.Printf("%12.0f  %9.0f  %9.1f  %12.1f  %11.1f  %15.1f\n",
				pt.CapacityMah, pt.TotalWeightG, pt.HoverPowerW, pt.ManeuverPowerW,
				pt.HoverFlightMin, pt.ComputeShareHoverPct)
		}
	default:
		d, err := core.Resolve(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		report(d)
	}
}

func report(d core.Design) {
	fmt.Printf("design @ %.0f mm wheelbase, TWR %.1f, %0.1f\" props\n",
		d.Spec.WheelbaseMM, d.Spec.TWR, d.PropInches)
	fmt.Printf("  weight: total %.0f g = frame %.0f + battery %.0f + motors 4x%.1f + ESCs %.0f + props %.0f + compute %.0f + sensors %.0f + payload %.0f + wiring %.0f\n",
		d.TotalG, d.FrameG, d.BatteryG, d.MotorUnitG, d.ESC4xG, d.PropsG,
		d.Spec.Compute.WeightG, d.Spec.SensorsG, d.Spec.PayloadG, d.WiringG)
	fmt.Printf("  motor: %.0f Kv, %.1f A required / %.1f A spec per motor\n",
		d.MotorKv, d.RequiredCurrentA, d.MotorMaxCurrentA)
	fmt.Printf("  power: hover %.1f W, maneuver %.1f W, max %.1f W\n",
		d.HoverPowerW(), d.ManeuverPowerW(), d.MaxElectricalPowerW())
	fmt.Printf("  flight time: %.1f min hovering (usable energy %.1f Wh)\n",
		d.HoverFlightTimeMin(), d.UsableEnergyWh())
	fmt.Printf("  compute footprint: %.1f%% of total power hovering, %.1f%% maneuvering\n",
		d.ComputeSharePct(propulsion.HoverLoadFraction), d.ComputeSharePct(propulsion.ManeuverLoadFraction))
	if issues := d.Feasibility(); len(issues) > 0 {
		for _, is := range issues {
			fmt.Printf("  WARNING: %v (needs %.0fC battery)\n", is, d.RequiredCRating())
		}
	}
}
