package mission

import (
	"errors"
	"fmt"

	"dronedse/autopilot"
	"dronedse/core"
	"dronedse/mathx"
)

// DeliveryLeg is one package run: fly to the pickup, dwell while the payload
// is attached, carry it to the dropoff, dwell while it is released.
type DeliveryLeg struct {
	Pickup    mathx.Vec3 `json:"pickup"`
	Dropoff   mathx.Vec3 `json:"dropoff"`
	PayloadKg float64    `json:"payload_kg"`
}

// Delivery is the multi-waypoint package-delivery workload (MAVBench's
// "package delivery"): the legs are flown in order as one waypoint mission,
// and the carried payload mass changes mid-flight at each pickup and
// dropoff. The mass is physical — it enters the plant's dynamics and the
// position controller's feedforward — and it re-enters the paper's design
// model: at Build, each carried-mass phase is resolved through the
// Equation 1 weight closure (an infeasible payload fails the Build exactly
// as an infeasible design fails Resolve), and the resulting Equation 5 hover
// endurances are reported in the Outcome next to the measured Equations 6–7
// energy accounting.
type Delivery struct {
	Legs []DeliveryLeg `json:"legs"`
	// HoldS is the dwell at each pickup/dropoff (default 2 s).
	HoldS float64 `json:"hold_s,omitempty"`
}

// Wire-input bounds: a tenant-submitted delivery plan may not demand
// unbounded engine memory or a payload outside the model's validity.
const (
	maxDeliveryLegs      = 32
	maxDeliveryPayloadKg = 5
)

// DefaultDelivery is the two-leg demo plan flysim's -workload delivery and
// the benchmark kernels fly: a 0.5 kg parcel east, then a 0.8 kg parcel back
// across the launch point.
func DefaultDelivery() Delivery {
	return Delivery{Legs: []DeliveryLeg{
		{Pickup: mathx.V3(10, 0, 6), Dropoff: mathx.V3(10, 14, 6), PayloadKg: 0.5},
		{Pickup: mathx.V3(2, 14, 6), Dropoff: mathx.V3(-8, 4, 6), PayloadKg: 0.8},
	}}
}

// Kind implements Workload.
func (Delivery) Kind() string { return "delivery" }

// Validate implements Workload.
func (d Delivery) Validate() error {
	if len(d.Legs) == 0 {
		return errors.New("mission: delivery needs at least one leg")
	}
	if len(d.Legs) > maxDeliveryLegs {
		return fmt.Errorf("mission: delivery capped at %d legs", maxDeliveryLegs)
	}
	if !finite(d.HoldS) || d.HoldS < 0 || d.HoldS > 60 {
		return errors.New("mission: delivery hold must be within [0, 60] s")
	}
	for i, leg := range d.Legs {
		if !finiteVec(leg.Pickup) || !finiteVec(leg.Dropoff) || !finite(leg.PayloadKg) {
			return fmt.Errorf("mission: delivery leg %d not finite", i)
		}
		if leg.Pickup.Z <= 0 || leg.Dropoff.Z <= 0 {
			return fmt.Errorf("mission: delivery leg %d below ground", i)
		}
		if leg.PayloadKg < 0 || leg.PayloadKg > maxDeliveryPayloadKg {
			return fmt.Errorf("mission: delivery leg %d payload outside [0, %d] kg",
				i, maxDeliveryPayloadKg)
		}
	}
	return nil
}

// New implements Workload.
func (d Delivery) New(ctx Context) (Driver, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	hold := d.HoldS
	if hold == 0 {
		hold = 2
	}
	legs := d.Legs
	plan := make(autopilot.MissionPlan, 0, 2*len(legs))
	for _, leg := range legs {
		plan = append(plan,
			autopilot.Waypoint{Pos: leg.Pickup, HoldS: hold},
			autopilot.Waypoint{Pos: leg.Dropoff, HoldS: hold})
	}

	// Equation 1 closure per carried-mass phase (empty-handed first): the
	// design model's verdict on each payload, resolved against the paper's
	// reference 450 mm design. A payload the closure cannot converge for is
	// rejected here, before the engine ever flies it.
	phaseTotalG := make([]float64, 0, len(legs)+1)
	phaseEndurance := make([]float64, 0, len(legs)+1)
	spec := core.DefaultSpec()
	for i := 0; i <= len(legs); i++ {
		s := spec
		if i > 0 {
			s.PayloadG = legs[i-1].PayloadKg * 1000
		}
		des, err := core.Resolve(s)
		if err != nil {
			return nil, fmt.Errorf("mission: delivery leg %d payload infeasible: %w", i-1, err)
		}
		phaseTotalG = append(phaseTotalG, des.TotalG)
		phaseEndurance = append(phaseEndurance, des.HoverFlightTimeMin())
	}

	return &deliveryDriver{
		waypointDriver: waypointDriver{kind: "delivery", plan: plan, maxS: ctx.MaxSeconds},
		legs:           legs, phaseTotalG: phaseTotalG, phaseEndurance: phaseEndurance,
	}, nil
}

// deliveryDriver is a waypoint mission with a payload watcher: the mission
// index advancing past waypoint 2i means leg i's payload was just attached;
// past 2i+1, released. The final release never advances the index (the
// autopilot pins it and flips MissionCompleted), so it is detected
// separately.
type deliveryDriver struct {
	waypointDriver
	legs                        []DeliveryLeg
	phaseTotalG, phaseEndurance []float64

	prev, legsDone     int
	carried, delivered float64
	allDone            bool
}

func (d *deliveryDriver) Step(h Host) {
	if d.allDone {
		return
	}
	ap := h.AP()
	if idx := ap.MissionIndex(); idx != d.prev {
		for j := d.prev; j < idx && j < len(d.plan); j++ {
			if j%2 == 0 {
				d.carried += d.legs[j/2].PayloadKg
			} else {
				d.carried -= d.legs[j/2].PayloadKg
				d.delivered += d.legs[j/2].PayloadKg
				d.legsDone++
			}
		}
		d.prev = idx
		h.SetPayloadKg(d.carried)
	}
	if ap.MissionCompleted() {
		last := d.legs[len(d.legs)-1]
		d.carried -= last.PayloadKg
		d.delivered += last.PayloadKg
		d.legsDone++
		d.allDone = true
		h.SetPayloadKg(d.carried)
	}
}

func (d *deliveryDriver) Outcome(h Host, e Ending) Outcome {
	out := d.waypointDriver.Outcome(h, e)
	out.Completed = d.allDone && out.Completed
	out.LegsDone = d.legsDone
	out.DeliveredKg = d.delivered
	out.PhaseTotalG = d.phaseTotalG
	out.PhaseEnduranceMin = d.phaseEndurance
	return out
}
