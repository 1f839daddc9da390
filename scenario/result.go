package scenario

import (
	"sync"

	"dronedse/autopilot"
	"dronedse/control"
	"dronedse/core"
	"dronedse/estimation"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/power"
	"dronedse/sim"
)

// Result is the structured outcome of one scenario flight.
type Result struct {
	// FlightTimeS is the total simulated time when the flight ended.
	FlightTimeS float64
	// TakeoffOK reports the vehicle reached hover within the 30 s budget.
	TakeoffOK bool
	// Completed reports every mission waypoint was visited (false for
	// hover flights and failsafe aborts).
	Completed bool
	// FinalMode is the autopilot mode at the end (Disarmed for a landing,
	// anything else for a timeout).
	FinalMode autopilot.Mode
	// LastEvent is the autopilot's final safety/mode annotation.
	LastEvent string

	// Workload is the flown workload's own outcome: its kind, its notion of
	// completion, and its kind-specific metrics (delivered payload mass and
	// per-phase Equation 1/5 resolutions, coverage fraction, follow tracking
	// error).
	Workload mission.Outcome

	// Trajectory is the true position sampled at 10 Hz from the first
	// physics step.
	Trajectory *parallelx.Series[mathx.Vec3]
	// MaxEstErrM is the worst airborne estimator error |estimate - truth|.
	MaxEstErrM float64

	// EnergyWh integrates whole-drone power over the flight; ComputeWh is
	// the companion-computer share of it.
	EnergyWh  float64
	ComputeWh float64

	// Fallbacks/Recoveries count offload placement changes (zero without
	// an offload session).
	Fallbacks  int
	Recoveries int

	// EKFStats / CtrlStats are the flight's estimation and control work
	// ledgers (deterministic functions of the step/sensor schedule), the
	// inputs the roofline model places against platform ceilings.
	EKFStats  estimation.EKFStats
	CtrlStats control.CtrlStats

	// Log is the DataFlash-style flight log.
	Log *autopilot.FlightLog

	st *Stack // the flight's stack, until Release pools it
}

// Release returns the flight's whole Stack to the pool Build re-initialises
// stacks from and the chunks of its recordings, Log and Trajectory, to their
// free lists, and sets those two fields to nil. The summary fields stay
// valid. Only the Result's owner may call it, after its last read of the
// Stack and the recordings (a Log, Entries or Trajectory pointer kept past
// Release reads later flights); never release a Result handed to a caller.
func (r *Result) Release() {
	st := r.st
	if st == nil {
		return
	}
	r.st, r.Log, r.Trajectory = nil, nil, nil
	st.release()
}

// release pools st, first returning its recordings' chunks and dropping what
// its Spec supplied (telemetry sink, fault injector, observers, workload)
// and the hooks those installed, so a pooled stack keeps no tenant's
// objects reachable.
func (st *Stack) release() {
	st.traj.Release()
	st.Log.Reset()
	st.Autopilot.Detach()
	if st.Session != nil {
		st.Session.SetProbe(nil)
	}
	st.Spec, st.wl, st.drv = Spec{}, nil, driver{}
	stacks.Put(st)
}

// stacks holds the stacks of released Results for Build to re-initialise.
var stacks = sync.Pool{New: func() any {
	return &Stack{Quad: new(sim.Quad), Env: new(sim.Environment), Battery: new(power.Pack),
		Autopilot: new(autopilot.Autopilot), Log: new(autopilot.FlightLog)}
}}

// AvgPowerW is the flight's mean whole-drone power.
func (r *Result) AvgPowerW() float64 {
	if r.FlightTimeS <= 0 {
		return 0
	}
	return r.EnergyWh * 3600 / r.FlightTimeS
}

// AvgComputeW is the flight's mean companion-computer power.
func (r *Result) AvgComputeW() float64 {
	if r.FlightTimeS <= 0 {
		return 0
	}
	return r.ComputeWh * 3600 / r.FlightTimeS
}

// ComputeFlightCostMin prices the measured compute energy in flight time
// via the paper's Equation 7 approximation: the minutes of this flight's
// duration that the companion computer's share of total power "bought" —
// what a zero-power accelerator would have returned to the mission.
func (r *Result) ComputeFlightCostMin() float64 {
	return core.ApproxGainedFlightTimeMin(r.AvgPowerW(), r.AvgComputeW(), r.FlightTimeS/60)
}
