package mission

import (
	"fmt"

	"dronedse/autopilot"
)

// WireSpec is the serializable form of a workload — the tagged union that
// rides in fleet.JobSpec and on the fleetd wire. KindName selects the
// variant; the matching payload field (if the kind takes parameters)
// configures it. WireSpec itself implements Workload by delegating to the
// resolved concrete workload, so a scenario.Spec can carry either form
// untouched.
type WireSpec struct {
	// KindName: "box", "hover", "waypoints", "trajectory", "coverage",
	// "delivery" or "follow". Empty means "box".
	KindName string `json:"kind"`

	// Plan configures kind "waypoints".
	Plan autopilot.MissionPlan `json:"plan,omitempty"`
	// Trajectory configures kind "trajectory" (wire form: path + limits).
	Trajectory *Trajectory `json:"trajectory,omitempty"`
	// Coverage configures kind "coverage".
	Coverage *Coverage `json:"coverage,omitempty"`
	// Delivery configures kind "delivery".
	Delivery *Delivery `json:"delivery,omitempty"`
	// Follow configures kind "follow".
	Follow *Follow `json:"follow,omitempty"`
}

// Resolve returns the concrete workload the spec describes. A nil payload
// field falls back to the kind's default configuration (for delivery, the
// DefaultDelivery demo plan — an empty Legs slice would fail validation).
func (w WireSpec) Resolve() (Workload, error) {
	switch w.KindName {
	case "", "box":
		return Box{}, nil
	case "hover":
		return Hover{}, nil
	case "waypoints":
		return Waypoints{Plan: w.Plan}, nil
	case "trajectory":
		if w.Trajectory == nil {
			return nil, fmt.Errorf("mission: wire kind %q needs a trajectory payload", w.KindName)
		}
		return *w.Trajectory, nil
	case "coverage":
		if w.Coverage == nil {
			return Coverage{}, nil
		}
		return *w.Coverage, nil
	case "delivery":
		if w.Delivery == nil {
			return DefaultDelivery(), nil
		}
		return *w.Delivery, nil
	case "follow":
		if w.Follow == nil {
			return Follow{}, nil
		}
		return *w.Follow, nil
	default:
		return nil, fmt.Errorf("mission: unknown workload kind %q", w.KindName)
	}
}

// Kind implements Workload ("" normalizes to "box").
func (w WireSpec) Kind() string {
	if w.KindName == "" {
		return "box"
	}
	return w.KindName
}

// Validate implements Workload.
func (w WireSpec) Validate() error {
	wl, err := w.Resolve()
	if err != nil {
		return err
	}
	return wl.Validate()
}

// New implements Workload.
func (w WireSpec) New(ctx Context) (Driver, error) {
	wl, err := w.Resolve()
	if err != nil {
		return nil, err
	}
	return wl.New(ctx)
}

// Named maps a CLI workload name to its default-configured workload —
// flysim's and faultcamp's -workload flag.
func Named(kind string) (Workload, error) {
	return WireSpec{KindName: kind}.Resolve()
}
