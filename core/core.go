// Package core implements the paper's primary contribution: the analytical
// design-space model of §3.2 (Equations 1-7) that composes the component
// survey (dronedse/components) with propulsion physics (dronedse/propulsion)
// to translate compute power consumption into drone flight time.
//
// The pipeline mirrors the paper's procedure (Figure 12):
//
//	WeightTotal   = F(4*W_motor, W_esc, W_battery, W_frame, W_props,
//	                  W_compute, W_sensors, W_wires)            (Eq. 1)
//	MotorCurrent  = G(WeightTotal, TWR)                         (Eq. 2)
//	PowerAvg      = H(MotorCurrent*BattV, %FlyingLoad,
//	                  P_compute, P_sensors)                     (Eq. 3)
//	BattCapacity  = M(LiPoCapacity, %PowerEff, %LiPoDrainLimit) (Eq. 4)
//	FlightTime    = N(BattCapacity, PowerAvg)                   (Eq. 5)
//	%PowerCompute = X(PowerAvg, P_compute)                      (Eq. 6)
//	+FlightTime   = Z(%PowerCompute, FlightTime)                (Eq. 7)
//
// Equation 1 is a fixed point: heavier motors need heavier ESCs and more
// thrust, which needs heavier motors. Resolve iterates the loop ("if the
// additional weights necessitate a new motor, we redo the previous steps").
//
// The model has one calibration, fixed like the paper's (see the constants
// below), so a Spec is the only input a design resolves from.
package core

import (
	"errors"
	"fmt"
	"math"

	"dronedse/components"
	"dronedse/propulsion"
	"dronedse/units"
)

// The model's calibration. It is fitted once, so the modeled whole-drone
// power of the paper's own 1071 g open-source F450 reproduces its measured
// 130 W at a 30% flying load (§5.1 / Figure 16b), and is not an input: a
// design resolves against the same constants the paper validated. The
// efficiency chain is propulsion.DefaultEfficiencies, the one the flight
// plant flies, and the flying-load bands are propulsion.HoverLoadFraction
// and ManeuverLoadFraction (§3.2: 20-30% hovering, 60-70% maneuvering).
const (
	// motorOversize models catalog granularity: products come in
	// discrete thrust steps, so the chosen motor's spec current exceeds
	// the physics minimum by this factor on average.
	motorOversize = 1.35
	// powerEff is the %PowerEff distribution efficiency of Equation 4.
	powerEff = 0.95
	// wiringBaseG and wiringFrac model wires, power module, RC receiver
	// and misc mass (Figure 14's long tail) as base + fraction of total.
	wiringBaseG = 15
	wiringFrac  = 0.03
)

// Spec is a point in the design space: the choices a designer makes before
// the model resolves the electromechanical consequences.
type Spec struct {
	// WheelbaseMM selects the frame class; it dictates the maximum
	// propeller (Figure 9 pairings).
	WheelbaseMM float64
	// Cells is the battery configuration (1S-6S).
	Cells int
	// CapacityMah is the battery capacity.
	CapacityMah float64
	// TWR is the thrust-to-weight ratio target; the paper uses the
	// minimum flying value 2 to bound compute's possible contribution.
	TWR float64
	// Compute is the computation board (power + weight).
	Compute components.ComputeTier
	// SensorsW and SensorsG are extra sensor power and weight (Table 4
	// external sensors; self-powered LiDARs contribute weight only).
	SensorsW float64
	SensorsG float64
	// PayloadG is additional payload weight.
	PayloadG float64
	// ESCClass selects racing vs long-flight ESC weight scaling.
	ESCClass components.ESCClass
}

// DefaultSpec returns a 450 mm, 3S, 3000 mAh, TWR-2 design with the basic
// 3 W compute tier — approximately the paper's open-source drone.
func DefaultSpec() Spec {
	return Spec{
		WheelbaseMM: 450,
		Cells:       3,
		CapacityMah: 3000,
		TWR:         2,
		Compute:     components.BasicComputeTier,
		ESCClass:    components.LongFlight,
	}
}

// Design is a resolved configuration: the Equation 1 fixed point plus every
// derived quantity needed by Equations 2-7.
type Design struct {
	Spec Spec

	// PropInches is the propeller the wheelbase admits.
	PropInches float64
	// Weight breakdown (grams).
	FrameG     float64
	BatteryG   float64
	MotorUnitG float64 // one motor
	ESC4xG     float64 // set of four
	PropsG     float64 // set of four
	WiringG    float64
	TotalG     float64 // Equation 1 output

	// RequiredCurrentA is the physics-minimum per-motor max current
	// (Equation 2); MotorMaxCurrentA is the chosen motor's spec current
	// after catalog oversizing.
	RequiredCurrentA float64
	MotorMaxCurrentA float64
	// MotorKv is the selected motor's velocity constant.
	MotorKv float64
	// Iterations is how many closure passes Equation 1 took.
	Iterations int
}

// Validation errors.
var (
	ErrBadWheelbase = errors.New("core: wheelbase must be 40-1100 mm")
	ErrBadCells     = errors.New("core: cells must be 1-6")
	ErrBadCapacity  = errors.New("core: capacity must be positive and finite")
	ErrBadTWR       = errors.New("core: TWR must be finite and at least 1.2 (2 is the flying minimum)")
	ErrBadWeight    = errors.New("core: compute, sensor and payload weights must be finite and non-negative")
	ErrBadPower     = errors.New("core: compute and sensor power must be finite and non-negative")
	ErrBadESCClass  = errors.New("core: ESC class must be LongFlight or ShortFlight")
	ErrNoConverge   = errors.New("core: weight closure did not converge (design infeasible)")
)

// atLeast reports lo <= v < +Inf. NaN fails every comparison, so it is
// never at least anything.
func atLeast(v, lo float64) bool { return v >= lo && v <= math.MaxFloat64 }

// validate checks a spec against the model's domain before Resolve feeds it
// to the component fits.
func (spec Spec) validate() error {
	switch {
	case !(spec.WheelbaseMM >= 40 && spec.WheelbaseMM <= 1100):
		return fmt.Errorf("%w: %v", ErrBadWheelbase, spec.WheelbaseMM)
	case spec.Cells < 1 || spec.Cells > 6:
		return fmt.Errorf("%w: %d", ErrBadCells, spec.Cells)
	case !atLeast(spec.CapacityMah, math.SmallestNonzeroFloat64):
		return fmt.Errorf("%w: %v", ErrBadCapacity, spec.CapacityMah)
	case !atLeast(spec.TWR, 1.2):
		return fmt.Errorf("%w: %v", ErrBadTWR, spec.TWR)
	case !atLeast(spec.Compute.WeightG, 0):
		return fmt.Errorf("%w: compute %v g", ErrBadWeight, spec.Compute.WeightG)
	case !atLeast(spec.SensorsG, 0):
		return fmt.Errorf("%w: sensors %v g", ErrBadWeight, spec.SensorsG)
	case !atLeast(spec.PayloadG, 0):
		return fmt.Errorf("%w: payload %v g", ErrBadWeight, spec.PayloadG)
	case !atLeast(spec.Compute.PowerW, 0):
		return fmt.Errorf("%w: compute %v W", ErrBadPower, spec.Compute.PowerW)
	case !atLeast(spec.SensorsW, 0):
		return fmt.Errorf("%w: sensors %v W", ErrBadPower, spec.SensorsW)
	case spec.ESCClass != components.LongFlight && spec.ESCClass != components.ShortFlight:
		return fmt.Errorf("%w: %d", ErrBadESCClass, spec.ESCClass)
	}
	return nil
}

// weightClosure is the result of one Equation 1 damped fixed-point run.
type weightClosure struct {
	TotalG     float64
	MotorUnitG float64
	ESC4xG     float64
	WiringG    float64
	RequiredA  float64
	Iterations int
	Converged  bool
}

// closeWeightLoop iterates Equation 1's damped fixed point: on top of the
// fixed weight it adds four motors sized for the per-motor thrust, ESCs
// sized for the required current, and (when includeWiring) the wiring mass
// fraction. It is the single implementation behind Resolve and the Figure 9
// basic-weight closure. On divergence (weight runaway, NaN, or 200
// iterations without settling) Converged is false.
func closeWeightLoop(fixedG, initialG, twr, propD, packV float64,
	esc components.ESCClass, includeWiring bool) weightClosure {
	eff := propulsion.DefaultEfficiencies()
	var wc weightClosure
	total := initialG
	for iter := 0; iter < 200; iter++ {
		perMotorThrustG := twr * total / 4
		motorG := components.MotorWeightModel(perMotorThrustG)
		reqA := propulsion.MotorCurrent(
			units.GramsToNewtons(perMotorThrustG), propD, packV, eff)
		escG := components.ESCWeightModel(esc, reqA*motorOversize)
		wiring := 0.0
		if includeWiring {
			wiring = wiringBaseG + wiringFrac*total
		}
		next := fixedG + 4*motorG + escG + wiring

		wc.MotorUnitG = motorG
		wc.ESC4xG = escG
		wc.WiringG = wiring
		wc.RequiredA = reqA
		wc.Iterations = iter + 1

		if math.Abs(next-total) < 1e-9*(1+total) {
			wc.TotalG = next
			wc.Converged = true
			return wc
		}
		// Damped update keeps the slightly super-linear motor weight
		// model from oscillating on heavy designs.
		total = 0.5*total + 0.5*next
		if total > 1e6 || math.IsNaN(total) || math.IsInf(total, 0) {
			return wc
		}
	}
	return wc
}

// Resolve computes the Equation 1 fixed point for a spec.
func Resolve(spec Spec) (Design, error) {
	if err := spec.validate(); err != nil {
		return Design{}, err
	}

	d := Design{Spec: spec}
	d.PropInches = components.MaxPropellerInches(spec.WheelbaseMM)
	d.FrameG = components.FrameWeightModel(spec.WheelbaseMM)
	d.BatteryG = components.BatteryWeightModel(spec.Cells, spec.CapacityMah)
	d.PropsG = 4 * components.PropellerWeightG(d.PropInches)

	fixed := d.FrameG + d.BatteryG + d.PropsG +
		spec.Compute.WeightG + spec.SensorsG + spec.PayloadG

	propD := units.InchToMeter(d.PropInches)
	v := units.CellsToVoltage(spec.Cells)

	wc := closeWeightLoop(fixed, fixed*1.5, spec.TWR, propD, v, spec.ESCClass, true)
	if !wc.Converged {
		return Design{}, ErrNoConverge
	}
	d.MotorUnitG = wc.MotorUnitG
	d.ESC4xG = wc.ESC4xG
	d.WiringG = wc.WiringG
	d.RequiredCurrentA = wc.RequiredA
	d.Iterations = wc.Iterations
	d.TotalG = wc.TotalG
	d.MotorMaxCurrentA = d.RequiredCurrentA * motorOversize
	d.MotorKv = propulsion.KvForDesign(
		units.GramsToNewtons(spec.TWR*wc.TotalG/4), propD, v)
	return d, nil
}

// Voltage is the pack's nominal voltage.
func (d Design) Voltage() float64 { return units.CellsToVoltage(d.Spec.Cells) }

// MaxElectricalPowerW is the whole-drone power at full throttle.
func (d Design) MaxElectricalPowerW() float64 {
	return 4*d.MotorMaxCurrentA*d.Voltage() + d.Spec.Compute.PowerW + d.Spec.SensorsW
}

// AvgPowerW is Equation 3: propulsion at a flying-load fraction of maximum
// current draw, plus compute and sensor power.
func (d Design) AvgPowerW(load float64) float64 {
	if load < 0 {
		load = 0
	}
	return 4*d.MotorMaxCurrentA*d.Voltage()*load +
		d.Spec.Compute.PowerW + d.Spec.SensorsW
}

// HoverPowerW is Equation 3 at the hovering load band.
func (d Design) HoverPowerW() float64 { return d.AvgPowerW(propulsion.HoverLoadFraction) }

// ManeuverPowerW is Equation 3 at the maneuvering load band.
func (d Design) ManeuverPowerW() float64 { return d.AvgPowerW(propulsion.ManeuverLoadFraction) }

// UsableEnergyWh is Equation 4: rated energy derated by the LiPo drain limit
// and the power-distribution efficiency.
func (d Design) UsableEnergyWh() float64 {
	return units.MahToWh(d.Spec.CapacityMah, d.Voltage()) *
		units.LiPoDrainLimit * powerEff
}

// FlightTimeMin is Equation 5 at a flying load: usable energy over average
// power, in minutes.
func (d Design) FlightTimeMin(load float64) float64 {
	p := d.AvgPowerW(load)
	if p <= 0 {
		return 0
	}
	return d.UsableEnergyWh() / p * 60
}

// HoverFlightTimeMin is the headline hovering flight time.
func (d Design) HoverFlightTimeMin() float64 { return d.FlightTimeMin(propulsion.HoverLoadFraction) }

// ComputeSharePct is Equation 6: the percentage of total power consumed by
// computation at a flying load.
func (d Design) ComputeSharePct(load float64) float64 {
	p := d.AvgPowerW(load)
	if p <= 0 {
		return 0
	}
	return 100 * d.Spec.Compute.PowerW / p
}

// GainedFlightTimeMin is Equation 7 evaluated exactly: the flight time gained
// (or lost, negative) by swapping the compute platform for one with the given
// power and weight — the whole design is re-resolved because weight changes
// ripple through motors and ESCs (Table 5's columns).
func GainedFlightTimeMin(base Design, newComputeW, newComputeG, load float64) (float64, error) {
	spec := base.Spec
	spec.Compute = components.ComputeTier{
		Name:    "swapped",
		PowerW:  newComputeW,
		WeightG: newComputeG,
	}
	swapped, err := Resolve(spec)
	if err != nil {
		return 0, err
	}
	return swapped.FlightTimeMin(load) - base.FlightTimeMin(load), nil
}

// ApproxGainedFlightTimeMin is the paper's back-of-envelope form of
// Equation 7 used in §5.2 ("saving 10 W by moving from TX2 to FPGA gives us
// +1 minute of flight time (≈ 10/140 × 15 min)"): the saved power over the
// pre-swap total power, times the baseline flight time. It ignores the
// weight ripple that GainedFlightTimeMin resolves exactly.
func ApproxGainedFlightTimeMin(totalPowerW, savedPowerW, baselineFlightMin float64) float64 {
	if totalPowerW <= 0 {
		return 0
	}
	return savedPowerW / totalPowerW * baselineFlightMin
}
