// Package mission is the pluggable workload layer: MAVBench-style flight
// profiles (box survey, hover, trajectory, coverage mapping, multi-leg
// delivery, moving-target follow) expressed against one small interface the
// scenario driver executes, instead of a union of special cases inside the
// engine.
//
// Every kind flies one skeleton, which package scenario runs for all of
// them: takeoff, an active phase, an optional landing watch, done. A
// Workload is a declarative, immutable value — safe to share across batch
// lanes, embed in a fleet JobSpec, or reuse between campaign flights. The
// Driver it instantiates per stack holds every per-flight byte of mutable
// state and declares its kind's rules as data, a Lifecycle (the active
// budget, what ends the active phase early, where a failed takeoff and a
// lapsed budget go, the terminal state), plus hooks: the command flown once
// takeoff succeeds, an optional per-step hook and the Outcome. The engine
// counts every budget in physics steps, int(seconds*hz) truncated: the
// arithmetic the scenario goldens pin.
package mission

import (
	"math"

	"dronedse/autopilot"
	"dronedse/mathx"
)

// Context carries the spec-level knobs a Workload needs to instantiate its
// per-flight Driver. It is derived from the normalized scenario.Spec.
type Context struct {
	// Seed is the flight's master seed; workloads with stochastic content
	// (the follow target's route) derive their streams from it, exactly
	// like faultx derives fault plans.
	Seed int64
	// TakeoffAltM is the resolved takeoff altitude.
	TakeoffAltM float64
	// MaxSeconds is the spec's time budget, which each kind's Lifecycle
	// reads its own way: the waypoint kinds (box, waypoints, coverage,
	// delivery) end the flight MaxSeconds after t=0, takeoff included;
	// hover loiters MaxSeconds after takeoff, then lands; follow ignores
	// it (it follows for DurationS, then lands), and so does trajectory
	// (its planned TotalS plus 30 s).
	MaxSeconds float64
}

// Host is the engine-side surface a Driver commands: the autopilot plus
// mid-mission payload mass (which re-enters the plant dynamics and the
// position controller's feedforward, the Equation 1 closure made physical).
type Host interface {
	// AP returns the flight stack's autopilot.
	AP() *autopilot.Autopilot
	// SetPayloadKg sets the carried payload point mass on the plant and the
	// controller feedforward. Zero restores the bare design mass.
	SetPayloadKg(kg float64)
}

// Workload is a declarative flight profile. Implementations must be pure
// values: New may not mutate the receiver, so one Workload can be shared by
// any number of concurrent batch lanes.
type Workload interface {
	// Kind is the workload's wire name ("box", "hover", "trajectory",
	// "waypoints", "coverage", "delivery", "follow").
	Kind() string
	// Validate checks the declarative parameters; the fleet API maps its
	// errors to HTTP 400 before a job is accepted.
	Validate() error
	// New instantiates the per-flight Driver. All mutable state lives in
	// the returned Driver; construction errors (infeasible payloads, empty
	// coverage areas) surface as scenario.Build errors.
	New(ctx Context) (Driver, error)
}

// Driver is one flight's workload: its Lifecycle and the hooks the engine
// calls at the lifecycle's fixed points.
//
//	Lifecycle()    read once, before arming
//	Start(h)       before arming (load missions; errors abort the run)
//	Begin(h)       when takeoff succeeds, before the active phase: the
//	               workload's command (StartMission, FlyTrajectory,
//	               Follow); errors abort the run
//	Outcome(h, e)  the workload scorecard, read once the flight is done
//
// A Driver that also implements Stepper has Step called after every
// active-phase physics step, before the phase's end checks.
type Driver interface {
	Lifecycle() Lifecycle
	Start(h Host) error
	Begin(h Host) error
	Outcome(h Host, e Ending) Outcome
}

// Stepper is a Driver's optional per-step hook (delivery's payload watcher,
// follow's tracking tap). Step runs on the engine's hot path and must not
// allocate: the batch zero-steady-state-alloc guard covers every shipped
// workload.
type Stepper interface {
	Step(h Host)
}

// Branch names the phase a flight moves to when its takeoff fails or its
// active budget lapses.
type Branch int

// Lifecycle branches.
const (
	// Fly enters the active phase without the takeoff command.
	Fly Branch = iota
	// Land commands a landing and watches it for up to 60 s, until
	// DISARMED.
	Land
	// End ends the flight.
	End
)

// Lifecycle declares one kind's flight after the takeoff watch. The active
// phase has a budget of int(ActiveS*hz) physics steps. After each of its
// steps the engine runs the Stepper hook, then ends the flight if
// EndAtTerminal is set and the mode is Terminal, or else moves to Lapse
// once the budget is spent. A budget already spent at entry lapses at once.
type Lifecycle struct {
	// ActiveS is the active phase's budget in seconds. FromLaunch counts
	// it from t=0, so the takeoff watch spends its share.
	ActiveS    float64
	FromLaunch bool
	// Terminal is the state a completed flight ends in: DISARMED for the
	// kinds that land, HOVER for trajectory.
	Terminal autopilot.Mode
	// EndAtTerminal ends the active phase at its first step in Terminal.
	EndAtTerminal bool
	// TakeoffFail is where a failed takeoff goes; Lapse is where a spent
	// active budget goes, Land or End.
	TakeoffFail, Lapse Branch
}

// Ending is what the engine saw of the active phase, handed to Outcome.
type Ending struct {
	// Lapsed reports the active budget ran out; LapseMode is the mode at
	// that step.
	Lapsed    bool
	LapseMode autopilot.Mode
}

// Outcome is the per-workload scorecard attached to a scenario Result. Kind
// and Completed are universal. A Driver reports in Completed whether its
// goal was met; the engine keeps it only for a flight that ended in the
// Lifecycle's Terminal state. The remaining fields are populated by the
// workloads they belong to.
type Outcome struct {
	Kind      string `json:"kind"`
	Completed bool   `json:"completed"`

	// Delivery: legs delivered, payload mass dropped off, and the per-phase
	// design-model predictions (Equation 1 closure total mass and Equation 5
	// hover endurance for each carried-mass phase, empty-handed first).
	LegsDone          int       `json:"legs_done,omitempty"`
	DeliveredKg       float64   `json:"delivered_kg,omitempty"`
	PhaseTotalG       []float64 `json:"phase_total_g,omitempty"`
	PhaseEnduranceMin []float64 `json:"phase_endurance_min,omitempty"`

	// Coverage: fraction of the planned survey lanes actually visited.
	CoverageFrac float64 `json:"coverage_frac,omitempty"`

	// Follow: standoff tracking error, sampled at 10 Hz while following.
	MeanTrackErrM float64 `json:"mean_track_err_m,omitempty"`
	MaxTrackErrM  float64 `json:"max_track_err_m,omitempty"`
}

// Wire-input bounds: a tenant-submitted workload may not demand unbounded
// engine memory or hold a fleet lane for unbounded simulated time.
const (
	// maxPlanPoints caps a coverage plan's waypoints, a waypoint plan and
	// a trajectory's path.
	maxPlanPoints = 512
	// maxFlightS caps a follow's DurationS and a trajectory's planned
	// flight time, in seconds.
	maxFlightS = 3600
)

// finiteVec reports whether every component is a finite number.
func finiteVec(v mathx.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
