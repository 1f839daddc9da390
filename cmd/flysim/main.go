// Command flysim runs the full flight stack — 6-DOF plant, Table 2a sensor
// suite, EKF, cascaded PID at the Table 2b rates, ArduCopter-style
// autopilot, battery — through a waypoint mission, printing a flight log
// and the whole-drone power summary (the Figure 16b signal).
//
// The stack itself is assembled by the scenario engine; flysim is one
// Spec plus console output.
//
// Usage:
//
//	flysim -alt 5 -slam                  # fly the default box mission with SLAM power on
//	flysim -seconds 120 -workload hover  # just hover and watch the battery drain
//	flysim -workload delivery            # fly the two-leg package-delivery demo
package main

import (
	"flag"
	"fmt"
	"os"

	"dronedse/autopilot"
	"dronedse/mission"
	"dronedse/scenario"
	"dronedse/trace"
)

func main() {
	alt := flag.Float64("alt", 5, "takeoff altitude (m)")
	slam := flag.Bool("slam", false, "run SLAM-class compute load (RPi at 4.56 W vs 3.39 W)")
	workload := flag.String("workload", "", "workload kind: box, hover, coverage, delivery, follow (default box)")
	seconds := flag.Float64("seconds", 240, "maximum simulated seconds")
	seed := flag.Int64("seed", 1, "sensor/environment seed")
	wind := flag.Float64("wind", 0, "steady wind (m/s)")
	logCSV := flag.String("log", "", "write the DataFlash-style flight log as CSV to this file")
	flag.Parse()

	lastLog := -5.0
	climbing := true // until the first step out of TAKEOFF
	osc := trace.NewOscilloscope(*seed)
	spec := scenario.Spec{
		Seed:        *seed,
		TakeoffAltM: *alt,
		MaxSeconds:  *seconds,
		Compute:     scenario.Compute{SLAM: *slam},
		Observers: []autopilot.StepObserver{func(a *autopilot.Autopilot, dt float64) {
			osc.Observe(a.Time(), a.TotalPowerW())
			if a.Time()-lastLog >= 5 {
				lastLog = a.Time()
				s := a.Quad().State()
				fmt.Printf("t=%6.1fs mode=%-8v pos=(%6.2f,%6.2f,%5.2f) vel=%5.2fm/s P=%6.1fW soc=%4.1f%%\n",
					a.Time(), a.Mode(), s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.Norm(),
					a.TotalPowerW(), 100*a.Battery().StateOfCharge())
			}
			if climbing && a.Mode() != autopilot.Takeoff {
				climbing = false
				if a.Mode() == autopilot.Hover {
					fmt.Printf("hovering at %.1f m\n", a.Quad().State().Pos.Z)
				}
			}
		}},
	}
	if *wind > 0 {
		spec.Wind = scenario.Wind{MeanMS: *wind, GustMS: *wind / 2}
	}
	if *workload != "" {
		wl, err := mission.Named(*workload)
		check(err)
		spec.Workload = wl
	}

	st, err := scenario.Build(spec)
	check(err)
	check(st.Start())
	fmt.Println("armed; taking off...")
	for !st.Done() {
		_, err := st.Tick()
		check(err)
	}
	res := st.Result()
	if !res.TakeoffOK {
		fail("takeoff failed")
	}
	if res.FinalMode != autopilot.Disarmed {
		fail("mission did not complete in time")
	}

	fmt.Printf("\nflight complete at t=%.1f s\n", res.FlightTimeS)
	if res.Workload.Kind != "" {
		fmt.Printf("workload %s: completed=%v", res.Workload.Kind, res.Workload.Completed)
		if res.Workload.DeliveredKg > 0 {
			fmt.Printf(" delivered=%.2fkg over %d legs", res.Workload.DeliveredKg, res.Workload.LegsDone)
		}
		if res.Workload.CoverageFrac > 0 {
			fmt.Printf(" coverage=%.0f%%", 100*res.Workload.CoverageFrac)
		}
		if res.Workload.MaxTrackErrM > 0 {
			fmt.Printf(" track err mean=%.2fm max=%.2fm", res.Workload.MeanTrackErrM, res.Workload.MaxTrackErrM)
		}
		fmt.Println()
	}
	fmt.Printf("whole-drone power: avg %.1f W, peak %.1f W (paper's drone: 130 W avg)\n",
		osc.MeanPower(2, res.FlightTimeS), osc.PeakPower(2, res.FlightTimeS))
	fmt.Printf("energy used: %.2f Wh of %.2f Wh usable\n",
		osc.EnergyWh(), st.Battery.UsableEnergyWh())
	fmt.Println(res.Log.Summary())
	if *logCSV != "" {
		f, err := os.Create(*logCSV)
		check(err)
		check(res.Log.WriteCSV(f))
		check(f.Close())
		fmt.Println("flight log written to", *logCSV)
	}
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "flysim:", msg)
	os.Exit(1)
}
