// Package planner is the outer-loop navigation substrate of Table 1
// ("Navigation & trajectory", "Planning"): trapezoidal-velocity trajectory
// generation producing the position+velocity targets the inner loop
// consumes (Figure 6), and boustrophedon coverage paths for survey
// missions. Planning runs with relaxed deadlines — the §6 point that
// mission planning does not load the real-time loop.
package planner

import (
	"errors"
	"math"

	"dronedse/mathx"
)

// Trajectory is a time-parametrized path: per-segment trapezoidal velocity
// profiles (accelerate, cruise, decelerate per leg, stopping at each
// waypoint), sampled by the autopilot into the position+velocity targets
// the inner loop consumes.
type Trajectory struct {
	segs []segment
	// TotalS is the trajectory duration.
	TotalS float64
}

type segment struct {
	a, b    mathx.Vec3
	dir     mathx.Vec3
	length  float64
	vmax    float64
	amax    float64
	tAccel  float64
	tCruise float64
	tStart  float64
	dur     float64
	peakV   float64
}

// ErrDegeneratePath reports a path too short to time-parametrize.
var ErrDegeneratePath = errors.New("planner: path needs >= 2 distinct waypoints")

// PlanTrajectory builds a trajectory over the path at the given velocity
// and acceleration limits. Legs shorter than the accel distance use a
// triangular profile.
func PlanTrajectory(path []mathx.Vec3, vmax, amax float64) (*Trajectory, error) {
	if vmax <= 0 || amax <= 0 {
		return nil, errors.New("planner: limits must be positive")
	}
	var segs []segment
	t := 0.0
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		d := b.Sub(a)
		length := d.Norm()
		if length < 1e-9 {
			continue
		}
		s := segment{a: a, b: b, dir: d.Scale(1 / length), length: length, vmax: vmax, amax: amax, tStart: t}
		// Trapezoid: distance to reach vmax is v^2/2a on each side.
		accelDist := vmax * vmax / (2 * amax)
		if 2*accelDist <= length {
			s.peakV = vmax
			s.tAccel = vmax / amax
			s.tCruise = (length - 2*accelDist) / vmax
		} else {
			// Triangular: peak v = sqrt(a * length).
			s.peakV = math.Sqrt(amax * length)
			s.tAccel = s.peakV / amax
			s.tCruise = 0
		}
		s.dur = 2*s.tAccel + s.tCruise
		t += s.dur
		segs = append(segs, s)
	}
	if len(segs) == 0 {
		return nil, ErrDegeneratePath
	}
	return &Trajectory{segs: segs, TotalS: t}, nil
}

// Sample returns the position and velocity target at time t (clamped to
// the trajectory's span; beyond the end it holds the final waypoint).
func (tr *Trajectory) Sample(t float64) (pos, vel mathx.Vec3) {
	if t <= 0 {
		return tr.segs[0].a, mathx.Vec3{}
	}
	last := tr.segs[len(tr.segs)-1]
	if t >= tr.TotalS {
		return last.b, mathx.Vec3{}
	}
	for _, s := range tr.segs {
		if t > s.tStart+s.dur {
			continue
		}
		lt := t - s.tStart
		var dist, speed float64
		switch {
		case lt < s.tAccel:
			speed = s.amax * lt
			dist = 0.5 * s.amax * lt * lt
		case lt < s.tAccel+s.tCruise:
			speed = s.peakV
			dist = 0.5*s.amax*s.tAccel*s.tAccel + s.peakV*(lt-s.tAccel)
		default:
			rem := s.dur - lt
			speed = s.amax * rem
			dist = s.length - 0.5*s.amax*rem*rem
		}
		return s.a.Add(s.dir.Scale(dist)), s.dir.Scale(speed)
	}
	return last.b, mathx.Vec3{}
}
