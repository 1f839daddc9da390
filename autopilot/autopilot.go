// Package autopilot is the flight-code layer of the stack (Figure 5): an
// ArduCopter-style autopilot owning modes, arming, waypoint missions and
// failsafes, wired to the inner-loop cascade (internal/control), the sensor
// suite (internal/sensors), the estimator (internal/estimation), the battery
// (internal/power) and the 6-DOF plant (internal/sim).
//
// The outer loop — mission logic producing position/velocity targets — runs
// at 10 Hz with relaxed deadlines, while the inner loop runs at the Table 2b
// rates; the package keeps them separated exactly as §2.1.3-A prescribes.
package autopilot

import (
	"errors"
	"fmt"
	"math/rand"

	"dronedse/control"
	"dronedse/estimation"
	"dronedse/mathx"
	"dronedse/planner"
	"dronedse/power"
	"dronedse/sensors"
	"dronedse/sim"
)

// Mode is the autopilot flight mode.
type Mode int

// Flight modes.
const (
	Disarmed Mode = iota
	Takeoff
	Mission
	Hover
	Land
	ReturnToLaunch
	Failsafe
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Disarmed:
		return "DISARMED"
	case Takeoff:
		return "TAKEOFF"
	case Mission:
		return "MISSION"
	case Hover:
		return "HOVER"
	case Land:
		return "LAND"
	case ReturnToLaunch:
		return "RTL"
	case Failsafe:
		return "FAILSAFE"
	case TrajectoryMode:
		return "TRAJECTORY"
	case FollowMode:
		return "FOLLOW"
	default:
		return fmt.Sprintf("MODE(%d)", int(m))
	}
}

// Waypoint is one mission item.
type Waypoint struct {
	Pos mathx.Vec3
	// HoldS is how long to loiter after arrival.
	HoldS float64
	// AcceptRadiusM is the arrival threshold (default 0.5 m).
	AcceptRadiusM float64
}

// MissionPlan is an ordered waypoint list.
type MissionPlan []Waypoint

// Config assembles an autopilot.
type Config struct {
	Quad  *sim.Quad
	Rates control.Rates
	// Battery powers propulsion and electronics; nil disables battery
	// accounting and failsafe.
	Battery *power.Pack
	// ComputeW is the electronics power draw (autopilot board + any
	// workloads); the Figure 16 experiment varies it between phases.
	ComputeW float64
	// TakeoffAltM is the default takeoff altitude.
	TakeoffAltM float64
	Seed        int64
}

// Autopilot is the full closed-loop stack.
type Autopilot struct {
	quad    *sim.Quad
	cascade *control.Cascade
	suite   *sensors.Suite
	est     *estimation.Estimator
	battery *power.Pack
	rng     *rand.Rand

	mode        Mode
	landSpot    mathx.Vec3
	landLatched bool
	mission     MissionPlan
	wpIndex     int
	holdUntil   float64
	home        mathx.Vec3
	takeoffAlt  float64
	yawTarget   float64
	computeW    float64

	traj   *planner.Trajectory
	trajT0 float64
	follow FollowConfig

	fence       Geofence
	energy      EnergyPolicy
	avgPowerW   float64
	lastEvent   string
	staged      []Waypoint
	missionDone bool

	physicsHz float64
	dt        float64 // 1/physicsHz, the physics step
	// pos, att and rate gate the Table 2b loops to their rates; they are
	// fixed with the rates in New.
	pos, att, rate stride
	lastIMU        sensors.IMUSample
	prevVel        mathx.Vec3

	// faults, when non-nil, reports declared fault conditions (GPS denial
	// windows) the failsafe monitor escalates on.
	faults      FaultSignals
	gpsDenied   bool
	gpsDeniedAt float64

	// observers is the step bus: every registered StepObserver sees every
	// completed physics step, in registration order.
	observers []StepObserver
}

// StepObserver observes one completed physics step. Observers run after the
// plant and battery have advanced, so reads of Time/State/TotalPowerW see
// the post-step values. Observers must not call Step/RunFor/RunUntil.
type StepObserver func(a *Autopilot, dt float64)

// Observe registers fn on the step bus. Observers are invoked once per
// physics step in registration order — a deterministic, composable
// replacement for the old single OnStep callback that forced every caller
// to hand-chain the previous hook. Power tracing, flight logging, fault
// probes and user callbacks each register independently; ordering is fixed
// by registration, so a given wiring sequence always replays identically.
func (a *Autopilot) Observe(fn StepObserver) {
	if fn != nil {
		a.observers = append(a.observers, fn)
	}
}

// New builds the autopilot stack.
func New(cfg Config) (*Autopilot, error) {
	if cfg.Quad == nil {
		return nil, errors.New("autopilot: nil plant")
	}
	a := new(Autopilot)
	a.Init(cfg)
	return a, nil
}

// Init re-initialises a in place as New(cfg) would build it; cfg.Quad must
// be set. The cascade, sensor suite and estimator it already owns are
// re-initialised rather than replaced, and its random source is reseeded,
// so a reused autopilot flies bit-identically to a new one.
func (a *Autopilot) Init(cfg Config) {
	r := cfg.Rates
	if r.RateHz == 0 {
		r = control.DefaultRates()
	}
	alt := cfg.TakeoffAltM
	if alt <= 0 {
		alt = 5
	}
	physicsHz := 1000.0
	if r.RateHz > physicsHz {
		physicsHz = r.RateHz
	}
	cascade, suite, est := a.cascade, a.suite, a.est
	if cascade == nil {
		cascade = new(control.Cascade)
	}
	if suite == nil {
		suite = new(sensors.Suite)
	}
	if est == nil {
		est = new(estimation.Estimator)
	}
	cascade.Init(cfg.Quad)
	suite.Init(cfg.Seed)
	est.Init()
	clear(a.observers)
	*a = Autopilot{
		quad:       cfg.Quad,
		cascade:    cascade,
		suite:      suite,
		est:        est,
		battery:    cfg.Battery,
		rng:        mathx.Reseed(a.rng, cfg.Seed+99),
		takeoffAlt: alt,
		computeW:   cfg.ComputeW,
		physicsHz:  physicsHz,
		dt:         1 / physicsHz,
		pos:        newStride(physicsHz, r.PositionHz),
		att:        newStride(physicsHz, r.AttitudeHz),
		rate:       newStride(physicsHz, r.RateHz),
		observers:  a.observers[:0],
	}
}

// Detach drops everything installed on a from outside — step observers,
// fault signals, the sensor suite's fault view, and the mission,
// trajectory and follow target — so an idle autopilot keeps none of its
// last flight's objects reachable. Init restores the rest.
func (a *Autopilot) Detach() {
	clear(a.observers)
	a.observers = a.observers[:0]
	a.faults, a.suite.Faults = nil, nil
	a.mission, a.staged, a.traj, a.follow = nil, nil, nil, FollowConfig{}
}

// stride gates a control loop to every every-th physics step, starting with
// the first. phase counts the steps since the loop last ran, so due is the
// step count modulo every without a per-step division.
type stride struct{ every, phase int }

// newStride returns the stride of a loop at loopHz on a physicsHz clock,
// rounded to the nearest whole step and at least one.
func newStride(physicsHz, loopHz float64) stride {
	every := int(physicsHz/loopHz + 0.5)
	if every < 1 {
		every = 1
	}
	return stride{every: every}
}

func (s *stride) due() bool { return s.phase == 0 }

func (s *stride) advance() {
	if s.phase++; s.phase == s.every {
		s.phase = 0
	}
}

// FaultSignals is the autopilot's view of declared fault conditions
// (implemented by faultx.Injector). The autopilot polls it every physics
// step; a nil interface or an all-clear answer leaves behavior untouched.
type FaultSignals interface {
	// GPSDenied reports whether GPS is denied (jammed, indoors) at time t.
	GPSDenied(t float64) bool
}

// SetFaultSignals installs (or, with nil, removes) the declared-fault
// source the failsafe monitor consumes.
func (a *Autopilot) SetFaultSignals(fs FaultSignals) { a.faults = fs }

// Suite exposes the sensor suite so fault injectors can install their
// sensors.FaultView and tests can inspect the sensors.
func (a *Autopilot) Suite() *sensors.Suite { return a.suite }

// Estimator exposes the fusion stack (read-mostly; tests and telemetry).
func (a *Autopilot) Estimator() *estimation.Estimator { return a.est }

// Cascade exposes the control cascade (read-mostly; tests and the work
// ledgers the roofline model aggregates).
func (a *Autopilot) Cascade() *control.Cascade { return a.cascade }

// Mode returns the current flight mode.
func (a *Autopilot) Mode() Mode { return a.mode }

// Time returns the simulated time.
func (a *Autopilot) Time() float64 { return a.quad.Time() }

// PhysicsHz returns the physics step rate (steps per simulated second) —
// external tick drivers use it to convert second budgets into step counts
// exactly as RunFor and RunUntil do.
func (a *Autopilot) PhysicsHz() float64 { return a.physicsHz }

// Quad exposes the plant (read-mostly; tests and traces).
func (a *Autopilot) Quad() *sim.Quad { return a.quad }

// Battery exposes the pack, possibly nil.
func (a *Autopilot) Battery() *power.Pack { return a.battery }

// SetComputeW changes the electronics power draw (e.g. SLAM started).
func (a *Autopilot) SetComputeW(w float64) { a.computeW = w }

// ComputeW returns the present electronics power draw.
func (a *Autopilot) ComputeW() float64 { return a.computeW }

// EstimatedState returns the fused state estimate the controllers fly on.
func (a *Autopilot) EstimatedState() sim.State {
	return sim.State{
		Pos:   a.est.Pos.Position(),
		Vel:   a.est.Pos.Velocity(),
		Att:   a.est.Att.Attitude(),
		Omega: a.lastIMU.Gyro,
	}
}

// Arm transitions Disarmed -> Takeoff. It fails in any other mode or with a
// drained battery (pre-flight check).
func (a *Autopilot) Arm() error {
	if a.mode != Disarmed {
		return fmt.Errorf("autopilot: cannot arm in %v", a.mode)
	}
	if a.battery != nil && a.battery.Drained() {
		return errors.New("autopilot: battery below drain limit")
	}
	a.home = a.quad.State().Pos
	a.mode = Takeoff
	return nil
}

// LoadMission installs a mission plan; it validates waypoints.
func (a *Autopilot) LoadMission(m MissionPlan) error {
	if len(m) == 0 {
		return errors.New("autopilot: empty mission")
	}
	for i, wp := range m {
		if wp.Pos.Z <= 0 {
			return fmt.Errorf("autopilot: waypoint %d below ground", i)
		}
	}
	a.mission = m
	a.wpIndex = 0
	return nil
}

// StartMission transitions to Mission mode (must be airborne: Hover or
// Takeoff complete).
func (a *Autopilot) StartMission() error {
	if len(a.mission) == 0 {
		return errors.New("autopilot: no mission loaded")
	}
	if a.mode != Hover {
		return fmt.Errorf("autopilot: start mission from HOVER, not %v", a.mode)
	}
	a.wpIndex = 0
	a.missionDone = false
	a.mode = Mission
	return nil
}

// MissionCompleted reports whether the last started mission visited every
// waypoint (fault campaigns use it to separate a completed mission from a
// failsafe abort).
func (a *Autopilot) MissionCompleted() bool { return a.missionDone }

// MissionIndex reports the next unvisited waypoint's index. It advances as
// the mission progresses and pins at len(plan)-1 once the final waypoint is
// reached (MissionCompleted distinguishes the terminal hold); workload
// drivers watch it to trigger mid-mission events such as payload handoffs.
func (a *Autopilot) MissionIndex() int { return a.wpIndex }

// CommandLand requests a descent to touchdown.
func (a *Autopilot) CommandLand() { a.mode = Land }

// CommandHover holds position at the current estimate (valid from any
// airborne mode; it cancels missions, trajectories and following).
func (a *Autopilot) CommandHover() {
	if a.mode != Disarmed && a.mode != Land && a.mode != Failsafe {
		a.mode = Hover
		a.traj = nil
	}
}

// CommandRTL requests return-to-launch.
func (a *Autopilot) CommandRTL() {
	if a.mode != Disarmed {
		a.mode = ReturnToLaunch
	}
}

// targets computes the outer-loop set point for the current mode (the
// 10 Hz mission logic).
func (a *Autopilot) targets() control.Targets {
	est := a.EstimatedState()
	switch a.mode {
	case Takeoff:
		goal := a.home
		goal.Z = a.takeoffAlt
		if est.Pos.Z > a.takeoffAlt*0.95 {
			a.mode = Hover
		}
		return control.Targets{Position: goal, Yaw: a.yawTarget}
	case Mission:
		wp := a.mission[a.wpIndex]
		accept := wp.AcceptRadiusM
		if accept <= 0 {
			accept = 0.5
		}
		if est.Pos.Sub(wp.Pos).Norm() < accept {
			if a.holdUntil == 0 {
				a.holdUntil = a.Time() + wp.HoldS
			}
			if a.Time() >= a.holdUntil {
				a.holdUntil = 0
				a.wpIndex++
				if a.wpIndex >= len(a.mission) {
					a.wpIndex = len(a.mission) - 1
					a.missionDone = true
					a.mode = ReturnToLaunch
				}
			}
		}
		return control.Targets{Position: a.mission[a.wpIndex].Pos, Yaw: a.yawTarget}
	case TrajectoryMode:
		return a.trajectoryTargets()
	case FollowMode:
		return a.followTargets()
	case Land:
		if !a.landLatched {
			a.landSpot = est.Pos
			a.landLatched = true
		}
		goal := a.landSpot
		goal.Z = -0.5 // drive through the ground plane; contact disarms
		if a.quad.OnGround() {
			a.mode = Disarmed
			a.landLatched = false
		}
		return control.Targets{Position: goal, Yaw: a.yawTarget}
	case ReturnToLaunch:
		goal := a.home
		goal.Z = a.takeoffAlt
		if est.Pos.Sub(goal).Norm() < 0.5 {
			a.mode = Land
		}
		return control.Targets{Position: goal, Yaw: a.yawTarget}
	case Failsafe:
		if !a.landLatched {
			a.landSpot = est.Pos
			a.landLatched = true
		}
		goal := a.landSpot
		goal.Z = -0.5
		if a.quad.OnGround() {
			a.mode = Disarmed
			a.landLatched = false
		}
		return control.Targets{Position: goal, Yaw: a.yawTarget}
	default: // Disarmed, Hover
		hold := est.Pos
		if a.mode == Hover {
			return control.Targets{Position: hold, Yaw: a.yawTarget}
		}
		return control.Targets{Position: a.home, Yaw: a.yawTarget}
	}
}

// Step advances the whole stack by one physics step (1/physicsHz seconds).
func (a *Autopilot) Step() {
	dt := a.dt
	trueState := a.quad.State()

	// Sensor acquisition at Table 2a rates. The gyro is read every
	// control step (flight controllers clock the gyro at the loop rate;
	// Table 2a's 100-200 Hz is the fused output rate).
	now := a.quad.Time()

	// Declared-fault edge detection: a GPS denial window switches the
	// estimator into coasting (covariance inflation, no GPS ingestion)
	// and starts the failsafe escalation clock.
	if a.faults != nil {
		if denied := a.faults.GPSDenied(now); denied != a.gpsDenied {
			a.gpsDenied = denied
			a.est.DeclareOutage(sensors.SensorGPS, denied)
			if denied {
				a.gpsDeniedAt = now
				a.lastEvent = "gps denied: coasting"
			} else {
				a.lastEvent = "gps recovered"
			}
		}
	}

	accelWorld := trueState.Vel.Sub(a.prevVel).Scale(a.physicsHz)
	a.prevVel = trueState.Vel
	if imu, ok := a.suite.SampleIMU(now, trueState, accelWorld); ok {
		a.lastIMU = imu
		a.est.OnIMU(a.lastIMU, a.suite.IMU.Period())
	} else {
		// fast gyro path for the rate loop
		a.lastIMU.Gyro = trueState.Omega.Add(mathx.V3(
			a.rng.NormFloat64(), a.rng.NormFloat64(), a.rng.NormFloat64()).Scale(0.003))
	}
	if fix, ok := a.suite.SampleGPS(now, trueState); ok {
		a.est.OnGPS(fix)
	}
	if alt, ok := a.suite.SampleBaro(now, trueState); ok {
		a.est.OnBaro(alt)
	}
	if yaw, ok := a.suite.SampleMagYaw(now, trueState); ok {
		a.est.OnMag(yaw, a.suite.Mag.Period())
	}

	// Battery failsafe (outer-loop decision, Table 1: flight time
	// management).
	if a.battery != nil && a.battery.Drained() &&
		a.mode != Land && a.mode != Disarmed && a.mode != Failsafe {
		a.lastEvent = "battery drained: failsafe land"
		a.mode = Failsafe
	}

	// Control cascade at Table 2b rates, flying on the estimate.
	est := a.EstimatedState()
	armed := a.mode != Disarmed
	if a.pos.due() && armed {
		a.checkSafety()
		a.cascade.UpdatePosition(est, a.targets(), float64(a.pos.every)*dt)
	}
	if a.att.due() && armed {
		a.cascade.UpdateAttitude(est, float64(a.att.every)*dt)
	}
	if a.rate.due() {
		if armed {
			a.quad.CommandThrusts(a.cascade.UpdateRate(est, float64(a.rate.every)*dt))
		} else {
			a.quad.CommandThrusts([sim.NumMotors]float64{})
		}
	}
	a.pos.advance()
	a.att.advance()
	a.rate.advance()

	a.quad.Step(dt)

	// Energy accounting, plus the rolling average power the Table 1
	// flight-time-management policy consumes (~5 s EMA).
	total := a.quad.ElectricalPowerW() + a.computeW
	if a.battery != nil {
		a.battery.DrawPower(total, dt)
	}
	if a.avgPowerW == 0 {
		a.avgPowerW = total
	} else {
		alpha := dt / 5
		a.avgPowerW += alpha * (total - a.avgPowerW)
	}
	for _, fn := range a.observers {
		fn(a, dt)
	}
}

// RunFor advances the stack for the given simulated duration.
func (a *Autopilot) RunFor(seconds float64) {
	n := int(seconds * a.physicsHz)
	for i := 0; i < n; i++ {
		a.Step()
	}
}

// RunUntil advances until cond returns true or the timeout elapses,
// reporting whether the condition was met.
func (a *Autopilot) RunUntil(cond func(*Autopilot) bool, maxSeconds float64) bool {
	n := int(maxSeconds * a.physicsHz)
	for i := 0; i < n; i++ {
		a.Step()
		if cond(a) {
			return true
		}
	}
	return cond(a)
}

// TotalPowerW is the instantaneous whole-drone power (Figure 16b signal).
func (a *Autopilot) TotalPowerW() float64 {
	return a.quad.ElectricalPowerW() + a.computeW
}
