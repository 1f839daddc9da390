package mission

import (
	"errors"
	"fmt"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/planner"
)

// Coverage is the mapping/survey workload (MAVBench's "mapping"): a
// lawnmower sweep of an axis-aligned area, flown as a waypoint mission whose
// rows come from planner.Lawnmower. The zero value surveys a 24×24 m area
// east of the launch point at 6 m lane spacing at the takeoff altitude.
type Coverage struct {
	// WidthM × HeightM is the survey area (defaults 24 × 24).
	WidthM  float64 `json:"width_m,omitempty"`
	HeightM float64 `json:"height_m,omitempty"`
	// SpacingM is the lane spacing (default 6).
	SpacingM float64 `json:"spacing_m,omitempty"`
	// AltM is the survey altitude (default: the takeoff altitude).
	AltM float64 `json:"alt_m,omitempty"`
	// OriginX/OriginY place the area's near corner (default 4, 0 — just
	// east of the launch point, so the transit leg is short).
	OriginX float64 `json:"origin_x,omitempty"`
	OriginY float64 `json:"origin_y,omitempty"`
}

func (c Coverage) withDefaults() Coverage {
	if c.WidthM == 0 {
		c.WidthM = 24
	}
	if c.HeightM == 0 {
		c.HeightM = 24
	}
	if c.SpacingM == 0 {
		c.SpacingM = 6
	}
	if c.OriginX == 0 && c.OriginY == 0 {
		c.OriginX = 4
	}
	return c
}

// Kind implements Workload.
func (Coverage) Kind() string { return "coverage" }

// Validate implements Workload.
func (c Coverage) Validate() error {
	c = c.withDefaults()
	for _, v := range []float64{c.WidthM, c.HeightM, c.SpacingM, c.AltM, c.OriginX, c.OriginY} {
		if !finite(v) {
			return errors.New("mission: coverage parameters must be finite")
		}
	}
	if c.WidthM <= 0 || c.HeightM <= 0 {
		return errors.New("mission: coverage area must have positive extent")
	}
	if c.SpacingM <= 0 {
		return errors.New("mission: coverage lane spacing must be positive")
	}
	if c.AltM < 0 {
		return errors.New("mission: coverage altitude must not be below ground")
	}
	if rows := c.HeightM/c.SpacingM + 2; 2*rows > maxPlanPoints {
		return fmt.Errorf("mission: coverage plan exceeds %d waypoints; widen the spacing", maxPlanPoints)
	}
	return nil
}

// New implements Workload: plan the sweep, then fly it as a waypoint
// mission whose outcome reports the visited-lane fraction.
func (c Coverage) New(ctx Context) (Driver, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	alt := c.AltM
	if alt <= 0 {
		alt = ctx.TakeoffAltM
	}
	pts, err := planner.Lawnmower(mathx.V3(c.OriginX, c.OriginY, 0), c.WidthM, c.HeightM, c.SpacingM, alt)
	if err != nil {
		return nil, fmt.Errorf("mission: coverage: %w", err)
	}
	plan := make(autopilot.MissionPlan, len(pts))
	for i, p := range pts {
		plan[i] = autopilot.Waypoint{Pos: p}
	}
	return &coverageDriver{waypointDriver{kind: "coverage", plan: plan, maxS: ctx.MaxSeconds}}, nil
}

// coverageDriver is a waypoint mission whose outcome reports the
// visited-lane fraction.
type coverageDriver struct{ waypointDriver }

func (d *coverageDriver) Outcome(h Host, e Ending) Outcome {
	out := d.waypointDriver.Outcome(h, e)
	out.CoverageFrac = 1
	if ap := h.AP(); !ap.MissionCompleted() {
		// MissionIndex is the next unvisited waypoint; each visited
		// endpoint is half a survey row flown.
		out.CoverageFrac = float64(ap.MissionIndex()) / float64(len(d.plan))
	}
	return out
}
