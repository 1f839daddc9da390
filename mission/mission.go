// Package mission is the pluggable workload layer: MAVBench-style flight
// profiles (box survey, hover, trajectory, coverage mapping, multi-leg
// delivery, moving-target follow) expressed against one small interface the
// scenario driver executes, instead of a union of special cases inside the
// engine.
//
// The split mirrors the engine's determinism architecture. A Workload is a
// declarative, immutable value — safe to share across batch lanes, embed in
// a fleet JobSpec, or reuse between campaign flights — while every per-flight
// byte of mutable state lives in the Driver a Workload instantiates per
// stack. Drivers express their phase timeouts as integer step budgets
// computed with the same int(seconds*hz) truncation the historical blocking
// Run used, and their done conditions are pure mode/counter checks, so a
// flight driven through a Workload is bit-identical to the pre-refactor
// state machine (pinned by the scenario golden tests).
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
	// MaxSeconds is the flight's time budget, read differently by kind:
	// the waypoint kinds (box, waypoints, coverage, delivery) end the
	// flight MaxSeconds after t=0, takeoff included; hover loiters
	// MaxSeconds after takeoff, then watches its landing for up to 60 s;
	// follow ignores it (DurationS plus a 60 s landing watch), and so does
	// trajectory (its planned TotalS plus 30 s).
	MaxSeconds float64
}

// Host is the engine-side surface a Driver commands: the autopilot plus the
// two effects a workload may push back into the engine — progress phases and
// mid-mission payload mass (which re-enters the plant dynamics and the
// position controller's feedforward, the Equation 1 closure made physical).
type Host interface {
	// AP returns the flight stack's autopilot.
	AP() *autopilot.Autopilot
	// MissionStarted fires the engine's mission-started progress phase.
	MissionStarted()
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

// Driver is one flight's workload state machine. The engine owns the fixed
// prologue — arm, 30 s takeoff watch — and hands over at Begin:
//
//	Start(h)            before arming (load missions; errors abort the run)
//	Begin(h, takeoffOK) when the takeoff phase resolves; done=true ends the
//	                    flight immediately (a zero step budget), matching
//	                    the historical enter-with-spent-budget semantics
//	Step(h)             after every subsequent physics step; true ends the
//	                    flight
//	Outcome()           the workload scorecard, read once the flight is done
//
// Step runs on the engine's hot path and must not allocate: the batch
// zero-steady-state-alloc guard covers every shipped workload.
type Driver interface {
	Start(h Host) error
	Begin(h Host, takeoffOK bool) (done bool, err error)
	Step(h Host) bool
	Outcome() Outcome
}

// Outcome is the per-workload scorecard attached to a scenario Result. Kind
// and Completed are universal; the remaining fields are populated by the
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

// stepBudget converts a budget of seconds into int(seconds*hz) physics
// steps, truncating; a driver counts one off per step and checks its stop
// condition after each step — the arithmetic the golden tests pin.
func stepBudget(seconds, hz float64) int { return int(seconds * hz) }

// finiteVec reports whether every component is a finite number.
func finiteVec(v mathx.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
