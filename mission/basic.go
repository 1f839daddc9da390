package mission

import (
	"errors"
	"fmt"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/planner"
)

// BoxPlan is the reference 12 m box mission at the given takeoff altitude —
// the plan cmd/flysim, faultx campaigns and bench.RunFigure16 all fly, so
// their outputs stay mutually bit-comparable.
func BoxPlan(altM float64) autopilot.MissionPlan {
	return autopilot.MissionPlan{
		{Pos: mathx.V3(12, 0, altM+1), HoldS: 1},
		{Pos: mathx.V3(12, 12, altM+3), HoldS: 1},
		{Pos: mathx.V3(0, 12, altM+1), HoldS: 1},
	}
}

// Box is the zero-configuration reference workload: the 12 m box mission at
// the Spec's takeoff altitude. It is what a scenario.Spec with a nil
// Workload flies.
type Box struct{}

// Kind implements Workload.
func (Box) Kind() string { return "box" }

// Validate implements Workload; the box has no parameters.
func (Box) Validate() error { return nil }

// New implements Workload.
func (Box) New(ctx Context) (Driver, error) {
	return &waypointDriver{kind: "box", plan: BoxPlan(ctx.TakeoffAltM), maxS: ctx.MaxSeconds}, nil
}

// Waypoints flies an explicit autopilot mission plan, in process or as the
// wire form for tenant-supplied waypoint missions.
type Waypoints struct {
	Plan autopilot.MissionPlan `json:"plan"`
}

// Kind implements Workload.
func (Waypoints) Kind() string { return "waypoints" }

// Validate implements Workload, mirroring autopilot.LoadMission's checks
// plus finiteness and the maxPlanPoints cap (wire input).
func (w Waypoints) Validate() error {
	if len(w.Plan) == 0 {
		return errors.New("mission: empty waypoint plan")
	}
	if len(w.Plan) > maxPlanPoints {
		return fmt.Errorf("mission: waypoint plan capped at %d waypoints", maxPlanPoints)
	}
	for i, wp := range w.Plan {
		if !finiteVec(wp.Pos) || !finite(wp.HoldS) || !finite(wp.AcceptRadiusM) {
			return fmt.Errorf("mission: waypoint %d not finite", i)
		}
		if wp.Pos.Z <= 0 {
			return fmt.Errorf("mission: waypoint %d below ground", i)
		}
	}
	return nil
}

// New implements Workload.
func (w Waypoints) New(ctx Context) (Driver, error) {
	return &waypointDriver{kind: "waypoints", plan: w.Plan, maxS: ctx.MaxSeconds}, nil
}

// waypointDriver flies a waypoint mission: StartMission once takeoff
// succeeds (a failed takeoff still flies out the budget), then until the
// vehicle disarms or the MaxSeconds window, counted from t=0, lapses. Box
// and Waypoints run on it; Coverage and Delivery embed it.
type waypointDriver struct {
	kind string
	plan autopilot.MissionPlan
	maxS float64
}

func (d *waypointDriver) Lifecycle() Lifecycle {
	return Lifecycle{ActiveS: d.maxS, FromLaunch: true, Terminal: autopilot.Disarmed,
		EndAtTerminal: true, TakeoffFail: Fly, Lapse: End}
}

func (d *waypointDriver) Start(h Host) error { return h.AP().LoadMission(d.plan) }

func (d *waypointDriver) Begin(h Host) error { return h.AP().StartMission() }

func (d *waypointDriver) Outcome(h Host, _ Ending) Outcome {
	return Outcome{Kind: d.kind, Completed: h.AP().MissionCompleted()}
}

// Hover loiters at the takeoff altitude for MaxSeconds, then lands
// (flysim's and fleetctl's -workload hover).
type Hover struct{}

// Kind implements Workload.
func (Hover) Kind() string { return "hover" }

// Validate implements Workload.
func (Hover) Validate() error { return nil }

// New implements Workload.
func (Hover) New(ctx Context) (Driver, error) {
	return &hoverDriver{loiterS: ctx.MaxSeconds}, nil
}

// hoverDriver loiters for the full MaxSeconds budget, then lands; a failed
// takeoff lands straight away. The hover is complete once it loitered out
// its budget and disarmed.
type hoverDriver struct{ loiterS float64 }

func (d *hoverDriver) Lifecycle() Lifecycle {
	return Lifecycle{ActiveS: d.loiterS, Terminal: autopilot.Disarmed, TakeoffFail: Land, Lapse: Land}
}

func (*hoverDriver) Start(Host) error { return nil }

func (*hoverDriver) Begin(Host) error { return nil }

func (*hoverDriver) Outcome(_ Host, e Ending) Outcome {
	return Outcome{Kind: "hover", Completed: e.Lapsed}
}

// Trajectory flies a time-parametrized planner trajectory after takeoff and
// ends hovering at its terminus. The profile is planned from Path and the
// velocity/acceleration limits at Validate and again at Build.
type Trajectory struct {
	Path    []mathx.Vec3 `json:"path,omitempty"`
	VMaxMS  float64      `json:"vmax_ms,omitempty"`  // default 5
	AMaxMS2 float64      `json:"amax_ms2,omitempty"` // default 3
}

// Kind implements Workload.
func (Trajectory) Kind() string { return "trajectory" }

// Validate implements Workload: the path must plan, within maxPlanPoints
// points and maxFlightS seconds of flight.
func (t Trajectory) Validate() error {
	_, err := t.plan()
	return err
}

// plan checks the parameters and plans the profile.
func (t Trajectory) plan() (*planner.Trajectory, error) {
	if len(t.Path) < 2 {
		return nil, errors.New("mission: trajectory needs a path of at least 2 points")
	}
	if len(t.Path) > maxPlanPoints {
		return nil, fmt.Errorf("mission: trajectory path capped at %d points", maxPlanPoints)
	}
	for i, p := range t.Path {
		if !finiteVec(p) {
			return nil, fmt.Errorf("mission: trajectory path point %d not finite", i)
		}
	}
	if !finite(t.VMaxMS) || t.VMaxMS < 0 || !finite(t.AMaxMS2) || t.AMaxMS2 < 0 {
		return nil, errors.New("mission: trajectory limits must be finite and non-negative")
	}
	vmax, amax := t.VMaxMS, t.AMaxMS2
	if vmax == 0 {
		vmax = 5
	}
	if amax == 0 {
		amax = 3
	}
	traj, err := planner.PlanTrajectory(t.Path, vmax, amax)
	if err != nil {
		return nil, err
	}
	if !(traj.TotalS <= maxFlightS) { // NaN too
		return nil, fmt.Errorf("mission: trajectory plans %g s of flight, over the %d s cap", traj.TotalS, maxFlightS)
	}
	return traj, nil
}

// New implements Workload.
func (t Trajectory) New(ctx Context) (Driver, error) {
	traj, err := t.plan()
	if err != nil {
		return nil, err
	}
	return &trajectoryDriver{traj: traj}, nil
}

// trajectoryDriver flies FlyTrajectory once takeoff succeeds, until the
// autopilot settles back into Hover at the terminus or the TotalS+30 budget
// lapses. A failed takeoff ends the flight.
type trajectoryDriver struct{ traj *planner.Trajectory }

func (d *trajectoryDriver) Lifecycle() Lifecycle {
	return Lifecycle{ActiveS: d.traj.TotalS + 30, Terminal: autopilot.Hover,
		EndAtTerminal: true, TakeoffFail: End, Lapse: End}
}

func (*trajectoryDriver) Start(Host) error { return nil }

func (d *trajectoryDriver) Begin(h Host) error { return h.AP().FlyTrajectory(d.traj) }

// Outcome's goal is the terminal hover itself, which the engine checks.
func (*trajectoryDriver) Outcome(Host, Ending) Outcome {
	return Outcome{Kind: "trajectory", Completed: true}
}
