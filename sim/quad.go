// Package sim is a 6-DOF rigid-body quadcopter simulator: the physical plant
// under the paper's control stack (§2.1). It supplies the "physical response
// time and inertia" that — per §2.1.3-D — limits the inner loop to 50-500 Hz
// regardless of compute, and it produces the whole-drone power signal behind
// Figure 16b.
//
// Conventions: ENU world frame (Z up), body frame X forward / Y left / Z up,
// attitude quaternion rotates body vectors into the world frame. Motors sit
// in an X configuration.
package sim

import (
	"errors"
	"math"

	"dronedse/mathx"
	"dronedse/propulsion"
	"dronedse/units"
)

// Motor indices of the X configuration.
const (
	FrontLeft = iota
	FrontRight
	BackLeft
	BackRight
	NumMotors
)

// State is the drone's measurable state: x = (position, velocity, angular
// velocity, attitude) exactly as §2.1.3-D defines it.
type State struct {
	Pos   mathx.Vec3 // m, world ENU
	Vel   mathx.Vec3 // m/s, world
	Omega mathx.Vec3 // rad/s, body frame
	Att   mathx.Quat // body -> world
}

// Config sizes a quadcopter plant.
type Config struct {
	MassKg      float64
	WheelbaseMM float64
	PropInches  float64
	// TWR is the design thrust-to-weight ratio used to size the rotors.
	TWR float64
	// DragCoef is the quadratic body drag coefficient (N per (m/s)^2).
	DragCoef float64
	// Eff is the propulsion efficiency chain for power accounting.
	Eff propulsion.Efficiencies
}

// DefaultConfig is the paper's open-source 450 mm drone: ~1.07 kg, 10"
// propellers, TWR 2.
func DefaultConfig() Config {
	return Config{
		MassKg:      1.071,
		WheelbaseMM: 450,
		PropInches:  10,
		TWR:         2,
		DragCoef:    0.02, // ~23 m/s terminal velocity

		Eff: propulsion.Efficiencies{FigureOfMerit: 0.60, Motor: 0.80, ESC: 0.93},
	}
}

// Quad is the stateful plant.
type Quad struct {
	cfg     Config
	rotor   propulsion.Rotor
	armM    float64 // moment arm of each motor along body x/y
	inertia mathx.Vec3

	state State
	// thrustN is each rotor's present thrust; rotor spin-up is a
	// first-order lag toward the commanded thrust.
	thrustN [NumMotors]float64
	cmdN    [NumMotors]float64

	// power is the rotor power model with its per-propeller constants
	// computed once. powerW caches ElectricalPowerW between thrust changes:
	// the autopilot, the scenario probe and any attached power recorder
	// read it every step, and the cache collapses that to one evaluation per Step without
	// changing a single returned bit.
	power      propulsion.PowerModel
	powerW     float64
	powerDirty bool

	env      *Environment // nil is calm air
	onGround bool
	// eff derates each rotor's commanded thrust (1 = healthy, 0 = failed).
	// Partial thrust loss — a chipped prop, a sagging ESC — sits between
	// the two, and fault injectors drive it over time.
	eff [NumMotors]float64
	// payloadKg is carried mass attached mid-flight (package delivery); it
	// adds to the airframe mass in the translational dynamics but not to the
	// design-derived thrust ceilings, which belong to the airframe.
	payloadKg float64
	t         float64
}

// Validate reports whether the config describes a plant that can fly:
// positive mass and dimensions and a thrust-to-weight ratio of at least 1.2.
func (cfg Config) Validate() error {
	if cfg.MassKg <= 0 || cfg.WheelbaseMM <= 0 || cfg.PropInches <= 0 {
		return errors.New("sim: non-physical config")
	}
	if cfg.TWR < 1.2 {
		return errors.New("sim: TWR below flying minimum")
	}
	return nil
}

// NewQuad builds the plant from a config.
func NewQuad(cfg Config) (*Quad, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := new(Quad)
	q.Init(cfg)
	return q, nil
}

// Init re-initialises q in place from cfg, which must pass Validate: level,
// at rest on the ground at the origin, healthy, carrying nothing, in calm
// air until SetEnvironment installs a model.
func (q *Quad) Init(cfg Config) {
	maxThrustPerMotor := cfg.TWR * cfg.MassKg * units.Gravity / 4
	wbM := cfg.WheelbaseMM / 1000
	*q = Quad{
		cfg:   cfg,
		rotor: propulsion.DesignRotor(units.InchToMeter(cfg.PropInches), maxThrustPerMotor),
		armM:  wbM / 2 * math.Sqrt2 / 2,
		inertia: mathx.V3(
			0.05*cfg.MassKg*wbM*wbM,
			0.05*cfg.MassKg*wbM*wbM,
			0.09*cfg.MassKg*wbM*wbM),
		state:      State{Att: mathx.QuatIdentity()},
		power:      propulsion.NewPowerModel(units.InchToMeter(cfg.PropInches), cfg.Eff),
		powerDirty: true,
		onGround:   true,
		eff:        [NumMotors]float64{1, 1, 1, 1},
	}
}

// SetEnvironment installs a wind/gust model; nil restores calm air.
func (q *Quad) SetEnvironment(env *Environment) { q.env = env }

// State returns a copy of the current true state.
func (q *Quad) State() State { return q.state }

// Time returns simulated seconds since start.
func (q *Quad) Time() float64 { return q.t }

// OnGround reports whether the drone is resting on the ground.
func (q *Quad) OnGround() bool { return q.onGround }

// Config returns the plant's configuration.
func (q *Quad) Config() Config { return q.cfg }

// MaxThrustPerMotorN is the rotor thrust ceiling.
func (q *Quad) MaxThrustPerMotorN() float64 {
	return q.cfg.TWR * q.cfg.MassKg * units.Gravity / 4
}

// HoverThrustPerMotorN is the per-motor thrust that balances weight.
func (q *Quad) HoverThrustPerMotorN() float64 {
	return q.cfg.MassKg * units.Gravity / 4
}

// RotorTimeConstant exposes the physical actuation lag (the §2.1.3-D
// response-time floor).
func (q *Quad) RotorTimeConstant() float64 { return q.rotor.TimeConstant }

// SetPayloadKg attaches (or, at 0, releases) a carried payload. The mass is
// felt by the dynamics from the next step; negative values clamp to zero.
// With no payload the plant's arithmetic is bit-identical to a payload-less
// build, so flights that never carry mass are unaffected.
func (q *Quad) SetPayloadKg(kg float64) {
	if kg < 0 {
		kg = 0
	}
	q.payloadKg = kg
}

// PayloadKg reports the currently carried payload mass.
func (q *Quad) PayloadKg() float64 { return q.payloadKg }

// massKg is the total translational mass: airframe plus carried payload.
func (q *Quad) massKg() float64 { return q.cfg.MassKg + q.payloadKg }

// SetMotorEfficiency derates motor i to the given thrust fraction in [0, 1]
// (1 restores full health, 0 is a failed motor or ESC); the commanded
// thrust is scaled before the spin-up lag. Out-of-range indices are ignored.
func (q *Quad) SetMotorEfficiency(i int, frac float64) {
	if i >= 0 && i < NumMotors {
		q.eff[i] = mathx.Clamp(frac, 0, 1)
	}
}

// MotorEfficiency returns motor i's present thrust derate (1 = healthy).
func (q *Quad) MotorEfficiency(i int) float64 {
	if i < 0 || i >= NumMotors {
		return 0
	}
	return q.eff[i]
}

// Teleport places the drone at rest at a position (test/scenario setup):
// velocities zero, attitude level, rotors pre-spun to hover thrust so a
// hovering controller takes over smoothly.
func (q *Quad) Teleport(pos mathx.Vec3) {
	q.state = State{Pos: pos, Att: mathx.QuatIdentity()}
	hover := q.HoverThrustPerMotorN()
	for i := range q.thrustN {
		q.thrustN[i] = hover
		q.cmdN[i] = hover
	}
	q.powerDirty = true
	q.onGround = pos.Z <= 0
}

// CommandThrusts sets the commanded per-motor thrusts in newtons, clamped to
// [0, max].
func (q *Quad) CommandThrusts(n [NumMotors]float64) {
	max := q.MaxThrustPerMotorN()
	for i, v := range n {
		q.cmdN[i] = mathx.Clamp(v, 0, max)
	}
}

// MotorThrusts returns the present rotor thrusts.
func (q *Quad) MotorThrusts() [NumMotors]float64 { return q.thrustN }

// ElectricalPowerW returns the present propulsion electrical power draw.
// The value is computed once per thrust change and cached, so the several
// per-step consumers (autopilot ledger, scenario probe, power recorders) share
// one evaluation of the rotor power model.
func (q *Quad) ElectricalPowerW() float64 {
	if q.powerDirty {
		p := 0.0
		for _, tN := range q.thrustN {
			p += q.power.ElectricalPower(tN)
		}
		q.powerW = p
		q.powerDirty = false
	}
	return q.powerW
}

// CurrentLoadFraction is the present total thrust over the TWR maximum — the
// "FlyingLoad" axis of §3.2 (hover ≈ 0.25-0.35, maneuvers 0.6+).
func (q *Quad) CurrentLoadFraction() float64 {
	sum := 0.0
	for _, tN := range q.thrustN {
		sum += tN
	}
	return sum / (4 * q.MaxThrustPerMotorN())
}

// yaw spin directions: diagonal pairs share a direction.
var spinSign = [NumMotors]float64{+1, -1, -1, +1}

// motor (x, y) body positions in units of the moment arm.
var motorX = [NumMotors]float64{+1, +1, -1, -1}
var motorY = [NumMotors]float64{+1, -1, +1, -1}

// Step advances the simulation by dt seconds (call at >= the inner-loop
// rate; 1 kHz is the reference).
func (q *Quad) Step(dt float64) {
	if dt <= 0 {
		return
	}
	q.t += dt

	// Rotor spin-up lag (first-order in thrust); failed motors spin down.
	alpha := dt / (q.rotor.TimeConstant + dt)
	for i := range q.thrustN {
		cmd := q.cmdN[i]
		if q.eff[i] != 1 {
			cmd *= q.eff[i]
		}
		q.thrustN[i] += alpha * (cmd - q.thrustN[i])
	}
	q.powerDirty = true

	// Forces.
	totalThrust := 0.0
	for _, tN := range q.thrustN {
		totalThrust += tN
	}
	thrustWorld := q.state.Att.Rotate(mathx.V3(0, 0, totalThrust))
	m := q.massKg()
	gravity := mathx.V3(0, 0, -m*units.Gravity)
	var wind mathx.Vec3 // calm air unless an environment is installed
	if q.env != nil {
		wind = q.env.WindAt(q.t)
	}
	air := wind.Sub(q.state.Vel) // air velocity relative to body
	drag := air.Scale(q.cfg.DragCoef * air.Norm())
	force := thrustWorld.Add(gravity).Add(drag)
	accel := force.Scale(1 / m)

	// Torques: r x F per motor plus yaw reaction, plus rotational damping.
	var tau mathx.Vec3
	c := q.rotor.KQ / q.rotor.KT // torque per thrust
	for i, tN := range q.thrustN {
		tau.X += motorY[i] * q.armM * tN
		tau.Y += -motorX[i] * q.armM * tN
		tau.Z += spinSign[i] * c * tN
	}
	tau = tau.Sub(q.state.Omega.Scale(0.01 * m)) // aero damping
	iw := q.state.Omega.Hadamard(q.inertia)
	domega := mathx.V3(
		(tau.X-(q.state.Omega.Y*iw.Z-q.state.Omega.Z*iw.Y))/q.inertia.X,
		(tau.Y-(q.state.Omega.Z*iw.X-q.state.Omega.X*iw.Z))/q.inertia.Y,
		(tau.Z-(q.state.Omega.X*iw.Y-q.state.Omega.Y*iw.X))/q.inertia.Z,
	)

	// Integrate (semi-implicit Euler).
	q.state.Vel = q.state.Vel.Add(accel.Scale(dt))
	q.state.Pos = q.state.Pos.Add(q.state.Vel.Scale(dt))
	q.state.Omega = q.state.Omega.Add(domega.Scale(dt))
	q.state.Att = q.state.Att.Integrate(q.state.Omega, dt)

	// Ground contact.
	if q.state.Pos.Z <= 0 {
		q.state.Pos.Z = 0
		if q.state.Vel.Z < 0 {
			q.state.Vel = mathx.Vec3{}
			q.state.Omega = mathx.Vec3{}
			// settle level, keep yaw
			_, _, yaw := q.state.Att.Euler()
			q.state.Att = mathx.QuatFromEuler(0, 0, yaw)
		}
		q.onGround = totalThrust < m*units.Gravity
	} else {
		q.onGround = false
	}
}
