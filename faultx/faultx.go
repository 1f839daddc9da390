// Package faultx is the deterministic fault-injection layer: a seed-driven
// scheduler of timed (and optionally stochastic) fault events that hooks
// into the sensor suite, the plant, the battery, the environment, the
// offload session and the telemetry link — without changing any of their
// happy paths. A zero Plan run is bit-identical to a run with no injector
// at all, which is what makes campaign deltas attributable to the faults.
//
// The paper's design-space methodology prices components under nominal
// conditions; this package supplies the other axis — how a chosen design
// degrades when the field misbehaves (GPS denial, radio outages, battery
// fade, motor damage, gusts). Each flight is a scenario.Result, whose
// ComputeFlightCostMin prices its compute energy with the paper's
// Equation 7 flight-time approximation.
package faultx

import (
	"fmt"
	"math"
	"math/rand"

	"dronedse/mathx"
	"dronedse/power"
	"dronedse/sensors"
	"dronedse/sim"
)

// Kind enumerates fault event types.
type Kind int

// Fault kinds.
const (
	// SensorDropout suppresses a sensor's samples (all of them, or a
	// stochastic fraction Prob of them).
	SensorDropout Kind = iota
	// SensorStuck freezes a sensor at its last delivered sample.
	SensorStuck
	// SensorBias adds Vec (or Mag on the primary axis) to a sensor's
	// readings — a bias jump while active.
	SensorBias
	// GPSDenial jams GPS: samples drop and the autopilot is told the
	// constellation is gone (estimator coasts, failsafe clock starts).
	GPSDenial
	// BatterySag derates the pack: Mag volts of extra sag and Frac
	// capacity fade.
	BatterySag
	// MotorDerate scales motor Motor's thrust to Frac of commanded.
	MotorDerate
	// WindGust adds a step gust Vec (m/s) to the environment wind field.
	WindGust
	// LinkOutage takes the offload radio link down.
	LinkOutage
	// LinkDegrade scales the offload link bandwidth to Frac of nominal.
	LinkDegrade
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SensorDropout:
		return "sensor-dropout"
	case SensorStuck:
		return "sensor-stuck"
	case SensorBias:
		return "sensor-bias"
	case GPSDenial:
		return "gps-denial"
	case BatterySag:
		return "battery-sag"
	case MotorDerate:
		return "motor-derate"
	case WindGust:
		return "wind-gust"
	case LinkOutage:
		return "link-outage"
	case LinkDegrade:
		return "link-degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Which fields matter depends on Kind.
type Event struct {
	Kind Kind
	// Start is the activation time in simulated seconds.
	Start float64
	// Duration bounds the event; <= 0 means it persists to the end.
	Duration float64
	// Sensor targets sensor events (sensors.SensorIMU, SensorGPS, ...).
	Sensor string
	// Motor indexes motor events.
	Motor int
	// Frac is the kind-specific fraction: MotorDerate remaining thrust,
	// LinkDegrade bandwidth scale, BatterySag capacity fade.
	Frac float64
	// Mag is the kind-specific scalar: BatterySag extra volts, scalar
	// sensor bias (baro meters, mag radians).
	Mag float64
	// Vec is the vector payload: sensor bias or gust velocity (m/s).
	Vec mathx.Vec3
	// Prob, for SensorDropout, drops each sample independently with this
	// probability instead of all of them (0 means drop everything).
	Prob float64
}

// Active reports whether the event covers time t.
func (e Event) Active(t float64) bool {
	return t >= e.Start && (e.Duration <= 0 || t < e.Start+e.Duration)
}

// Plan is a named fault schedule.
type Plan struct {
	Name   string
	Events []Event
}

// Validate rejects malformed plans before a campaign spends time flying
// them: every float field must be finite, and the kind's fields in range.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		for _, v := range [...]float64{e.Start, e.Duration, e.Frac, e.Mag, e.Prob, e.Vec.X, e.Vec.Y, e.Vec.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("faultx: event %d has non-finite field %v", i, v)
			}
		}
		if e.Start < 0 {
			return fmt.Errorf("faultx: event %d starts at %v", i, e.Start)
		}
		switch e.Kind {
		case SensorDropout, SensorStuck, SensorBias:
			switch e.Sensor {
			case sensors.SensorIMU, sensors.SensorMag, sensors.SensorBaro, sensors.SensorGPS:
			default:
				return fmt.Errorf("faultx: event %d targets unknown sensor %q", i, e.Sensor)
			}
			if e.Kind == SensorDropout && (e.Prob < 0 || e.Prob > 1) {
				return fmt.Errorf("faultx: event %d dropout prob %v outside [0,1]", i, e.Prob)
			}
		case MotorDerate:
			if e.Motor < 0 || e.Motor >= sim.NumMotors {
				return fmt.Errorf("faultx: event %d motor %d out of range", i, e.Motor)
			}
			if e.Frac < 0 || e.Frac > 1 {
				return fmt.Errorf("faultx: event %d derate frac %v outside [0,1]", i, e.Frac)
			}
		case BatterySag:
			if e.Mag < 0 || e.Frac < 0 || e.Frac > 0.95 {
				return fmt.Errorf("faultx: event %d battery sag %v/%v out of range", i, e.Mag, e.Frac)
			}
		case LinkDegrade:
			if e.Frac < 0 || e.Frac > 1 {
				return fmt.Errorf("faultx: event %d link scale %v outside [0,1]", i, e.Frac)
			}
		case GPSDenial, WindGust, LinkOutage:
		default:
			return fmt.Errorf("faultx: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Injector executes a Plan against a bound vehicle. It implements
// sensors.FaultView (sensor faults), autopilot.FaultSignals (declared GPS
// denial) and offload.LinkProbe (radio condition) — one object wired into
// three layers of the stack, all through interfaces the host packages own,
// so faultx stays dependency-light and the hosts stay fault-agnostic.
type Injector struct {
	plan Plan
	seed int64
	rng  *rand.Rand // seeded on the first stochastic dropout

	quad *sim.Quad
	pack *power.Pack
	env  *sim.Environment
}

// NewInjector builds an injector for plan; seed drives every stochastic
// decision (dropout coin flips), so equal seeds replay identically.
func NewInjector(plan Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, seed: seed}, nil
}

// Bind attaches the injector to the vehicle's plant, pack and environment.
// Any of them may be nil; the corresponding effects are skipped.
func (in *Injector) Bind(q *sim.Quad, p *power.Pack, e *sim.Environment) {
	in.quad, in.pack, in.env = q, p, e
}

// Apply pushes the plan's physical effects (motor derate, battery sag,
// gusts) into the bound components for time t. Call it once per outer-loop
// tick; it is idempotent for a given t and writes nominal values when no
// event is active, so expiring events heal.
func (in *Injector) Apply(t float64) {
	if in.quad != nil {
		var eff [sim.NumMotors]float64
		for i := range eff {
			eff[i] = 1
		}
		for i := range in.plan.Events {
			e := &in.plan.Events[i]
			if e.Kind == MotorDerate && e.Active(t) && e.Frac < eff[e.Motor] {
				eff[e.Motor] = e.Frac
			}
		}
		for i, f := range eff {
			in.quad.SetMotorEfficiency(i, f)
		}
	}
	if in.pack != nil {
		sag, fade := 0.0, 0.0
		for i := range in.plan.Events {
			e := &in.plan.Events[i]
			if e.Kind == BatterySag && e.Active(t) {
				sag += e.Mag
				if e.Frac > fade {
					fade = e.Frac
				}
			}
		}
		in.pack.SetFault(sag, fade)
	}
	if in.env != nil {
		var gust mathx.Vec3
		for i := range in.plan.Events {
			e := &in.plan.Events[i]
			if e.Kind == WindGust && e.Active(t) {
				gust = gust.Add(e.Vec)
			}
		}
		in.env.GustOffset = gust
	}
}

// SensorFault implements sensors.FaultView: the combined fault state of one
// sensor at time t. Stochastic dropouts draw from the injector's seeded rng,
// so the decision sequence is reproducible across runs of the same plan.
func (in *Injector) SensorFault(sensor string, t float64) sensors.FaultState {
	var st sensors.FaultState
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if !e.Active(t) {
			continue
		}
		if e.Kind == GPSDenial && sensor == sensors.SensorGPS {
			st.Dropout = true
			continue
		}
		if e.Sensor != sensor {
			continue
		}
		switch e.Kind {
		case SensorDropout:
			if e.Prob > 0 && in.rng == nil {
				in.rng = rand.New(mathx.NewSource(in.seed))
			}
			if e.Prob <= 0 || in.rng.Float64() < e.Prob {
				st.Dropout = true
			}
		case SensorStuck:
			st.Stuck = true
		case SensorBias:
			b := e.Vec
			if b == (mathx.Vec3{}) && e.Mag != 0 {
				b = mathx.V3(e.Mag, 0, 0)
			}
			st.Bias = st.Bias.Add(b)
		}
	}
	return st
}

// GPSDenied implements autopilot.FaultSignals.
func (in *Injector) GPSDenied(t float64) bool {
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Kind == GPSDenial && e.Active(t) {
			return true
		}
	}
	return false
}

// LinkUp implements offload.LinkProbe: false while any LinkOutage covers t.
func (in *Injector) LinkUp(t float64) bool {
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Kind == LinkOutage && e.Active(t) {
			return false
		}
	}
	return true
}

// BandwidthScale implements offload.LinkProbe: the most degraded active
// LinkDegrade fraction (1 when none).
func (in *Injector) BandwidthScale(t float64) float64 {
	scale := 1.0
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Kind == LinkDegrade && e.Active(t) && e.Frac < scale {
			scale = e.Frac
		}
	}
	return scale
}
