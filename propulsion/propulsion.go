// Package propulsion models the quadcopter propulsion system (§2.1.1) with
// first-order rotor physics: actuator-disk (momentum) theory for hover and
// climb power, thrust/torque coefficients for the simulator, and the
// Kv/voltage/RPM relationships of Table 3. It is the physics backbone behind
// Figure 9 (per-motor current vs. basic weight) and the power rows of
// Equations 2-3.
package propulsion

import (
	"math"

	"dronedse/units"
)

// Efficiencies capture where electrical watts are lost before becoming
// induced power at the rotor disk. The defaults are typical for hobby-class
// BLDC propulsion and are the calibration knobs that make Figure 10's
// absolute levels land on the paper's validated flight times.
type Efficiencies struct {
	// FigureOfMerit is the rotor's hover figure of merit (ideal induced
	// power / actual aerodynamic power), typically 0.6-0.75.
	FigureOfMerit float64
	// Motor is the BLDC electromechanical efficiency.
	Motor float64
	// ESC is the speed-controller conversion efficiency.
	ESC float64
}

// DefaultEfficiencies is the calibrated chain that the design model (core)
// and the flight plant (sim.DefaultConfig) share, so a design is flown with
// the losses it was sized with.
func DefaultEfficiencies() Efficiencies {
	return Efficiencies{FigureOfMerit: 0.60, Motor: 0.80, ESC: 0.93}
}

// chain returns the end-to-end electrical-to-induced-power efficiency.
func (e Efficiencies) chain() float64 { return e.FigureOfMerit * e.Motor * e.ESC }

// IdealInducedPower returns the momentum-theory induced power (W) to produce
// thrust (N) with a rotor disk of the given area (m^2) in air of density rho:
// P = T^(3/2) / sqrt(2 rho A).
//
// T^(3/2) is computed as T*sqrt(T) rather than Pow(T, 1.5): the two agree to
// the last one or two ulps, and this sits on the per-motor per-physics-step
// hot path of every flight simulation (Pow was ~a fifth of a whole flight's
// CPU time). The scenario goldens verify the swap leaves every pinned
// output — trajectory, flight time, campaign table — byte-identical.
func IdealInducedPower(thrustN, diskAreaM2, rho float64) float64 {
	if thrustN <= 0 || diskAreaM2 <= 0 {
		return 0
	}
	return thrustN * math.Sqrt(thrustN) / math.Sqrt(2*rho*diskAreaM2)
}

// ElectricalPower returns the electrical power (W) one motor draws to produce
// thrust (N) with a propeller of diameter m, after the efficiency chain.
func ElectricalPower(thrustN, propDiameterM float64, eff Efficiencies) float64 {
	return NewPowerModel(propDiameterM, eff).ElectricalPower(thrustN)
}

// PowerModel is ElectricalPower for one propeller and efficiency chain, with
// the per-propeller constants — the disk area, the momentum-theory
// denominator sqrt(2 rho A) and the chain product — computed once. The
// simulator evaluates it per motor per physics step.
type PowerModel struct {
	area, den, chain float64
}

// NewPowerModel fixes the constants for a propeller of the given diameter.
func NewPowerModel(propDiameterM float64, eff Efficiencies) PowerModel {
	area, rho := units.DiskArea(propDiameterM), units.AirDensity
	return PowerModel{area: area, den: math.Sqrt(2 * rho * area), chain: eff.chain()}
}

// ElectricalPower returns IdealInducedPower(thrustN, area, AirDensity)
// divided by the efficiency chain, bit for bit.
//
// The square root is taken of thrustN+0, which equals thrustN on this branch
// (thrustN > 0 or NaN), so that it runs in a freshly written register. On
// amd64 SQRTSD keeps its destination's upper lane; left to choose, the
// compiler reuses the register holding the previous motor's power, which
// chains the four rotors' square roots and divisions into one serial
// dependency and makes the per-tick sum over the motors about 2.4x slower.
func (m PowerModel) ElectricalPower(thrustN float64) float64 {
	var ideal float64
	if thrustN <= 0 || m.area <= 0 { // IdealInducedPower's guard
		ideal = 0
	} else {
		ideal = thrustN * math.Sqrt(thrustN+0) / m.den
	}
	return ideal / m.chain
}

// MotorCurrent returns the current (A) a motor draws producing thrust (N)
// with the given propeller from a pack of the given voltage.
func MotorCurrent(thrustN, propDiameterM, packVoltage float64, eff Efficiencies) float64 {
	if packVoltage <= 0 {
		return 0
	}
	return ElectricalPower(thrustN, propDiameterM, eff) / packVoltage
}

// Rotor aggregates the quadratic lumped-parameter rotor model used by the
// 6-DOF simulator: thrust = KT * w^2 and torque = KQ * w^2 with w in rad/s.
type Rotor struct {
	// KT is the thrust coefficient in N/(rad/s)^2.
	KT float64
	// KQ is the reaction-torque coefficient in N*m/(rad/s)^2.
	KQ float64
	// MaxOmega is the no-load speed limit in rad/s.
	MaxOmega float64
	// TimeConstant is the first-order spin-up/down lag in seconds; the
	// paper's physical-response argument (§2.1.3-D) rests on this plus
	// airframe inertia, not on compute speed.
	TimeConstant float64
}

// Thrust returns rotor thrust (N) at speed w (rad/s), clamped at MaxOmega.
func (r Rotor) Thrust(w float64) float64 {
	w = clamp(w, 0, r.MaxOmega)
	return r.KT * w * w
}

// OmegaForThrust inverts the thrust model: the speed (rad/s) needed for
// thrust t (N), clamped at MaxOmega.
func (r Rotor) OmegaForThrust(t float64) float64 {
	if t <= 0 || r.KT <= 0 {
		return 0
	}
	return clamp(math.Sqrt(t/r.KT), 0, r.MaxOmega)
}

// DesignRotor sizes a lumped rotor for a propeller of diameter m that must
// produce maxThrustN at 85% of its speed ceiling. Coefficients follow the
// blade-element scalings KT ~ rho D^4, KQ ~ rho D^5 with typical
// dimensionless coefficients for hobby propellers.
func DesignRotor(propDiameterM, maxThrustN float64) Rotor {
	const ct = 0.11 // dimensionless thrust coefficient, rev/s convention
	d4 := math.Pow(propDiameterM, 4)
	kt := ct * units.AirDensity * d4 / (4 * math.Pi * math.Pi) // rev^2->rad^2
	wAtMax := math.Sqrt(maxThrustN / kt)
	maxOmega := wAtMax / 0.85
	// Torque/thrust ratio scales with diameter; cq/ct ~ 0.05 D.
	kq := kt * 0.05 * propDiameterM * 10
	// Larger rotors spin up slower: ~15 ms for 2" racing props up to
	// ~120 ms for 20" lifters.
	tau := 0.01 + 0.22*propDiameterM
	return Rotor{KT: kt, KQ: kq, MaxOmega: maxOmega, TimeConstant: tau}
}

// RequiredRPM returns the propeller speed (RPM) to generate thrust (N) with
// the DesignRotor scaling for the given diameter.
func RequiredRPM(thrustN, propDiameterM float64) float64 {
	r := DesignRotor(propDiameterM, thrustN*2) // headroom irrelevant for speed
	return units.RadPerSecToRPM(r.OmegaForThrust(thrustN))
}

// KvForDesign estimates the motor Kv rating (RPM/V) appropriate for reaching
// maxThrustN on the given propeller from a pack of the given voltage,
// assuming the motor's loaded ceiling is ~75% of Kv*V. Figure 9's annotation
// that small high-RPM props need extreme Kv (51000 Kv at 1", 1S) and large
// props need low Kv (420 Kv at 20", 6S) emerges from this relationship.
func KvForDesign(maxThrustN, propDiameterM, packVoltage float64) float64 {
	if packVoltage <= 0 {
		return 0
	}
	rpm := RequiredRPM(maxThrustN, propDiameterM)
	return rpm / (0.75 * packVoltage)
}

// HoverLoadFraction and ManeuverLoadFraction are the flying-load levels the
// paper sweeps (§3.2: hovering 20-30%, maneuvering 60-70% of max current
// draw). Mid-band values are used as the defaults.
const (
	HoverLoadFraction    = 0.25
	ManeuverLoadFraction = 0.65
)

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
