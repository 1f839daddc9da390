package autopilot

import (
	"errors"
	"math"

	"dronedse/control"
	"dronedse/mathx"
)

// FollowMode tracks a moving ground target at a standoff distance — the
// active-filming application of the paper's introduction ("follow a
// predefined target and optimize the filming angles while avoiding
// obstacles"). The target position comes from a provider (in a real system,
// the recognition pipeline's output).
const FollowMode Mode = 101

// FollowConfig shapes the follow behavior.
type FollowConfig struct {
	// Target reports the target's position at simulated time t.
	Target func(t float64) mathx.Vec3
	// StandoffM is the horizontal trail distance.
	StandoffM float64
	// AltitudeM is the filming altitude above the target.
	AltitudeM float64
}

// Follow enters target-following from Hover.
func (a *Autopilot) Follow(cfg FollowConfig) error {
	if cfg.Target == nil {
		return errors.New("autopilot: nil target provider")
	}
	if a.mode != Hover {
		return errors.New("autopilot: start following from HOVER")
	}
	if cfg.StandoffM <= 0 {
		cfg.StandoffM = 4
	}
	if cfg.AltitudeM <= 0 {
		cfg.AltitudeM = 4
	}
	a.follow = cfg
	a.mode = FollowMode
	return nil
}

// followTargets computes the filming position: trail the target opposite
// its motion direction at the standoff, camera (body +X) pointed at it.
func (a *Autopilot) followTargets() control.Targets {
	now := a.Time()
	tgt := a.follow.Target(now)
	// Finite-difference target velocity for lead/trail placement.
	prev := a.follow.Target(now - 0.5)
	vel := tgt.Sub(prev).Scale(2)
	trail := vel.Scale(-1)
	trail.Z = 0
	if trail.Norm() < 0.1 {
		// Stationary target: hold the current bearing.
		est := a.EstimatedState().Pos
		trail = mathx.V3(est.X-tgt.X, est.Y-tgt.Y, 0)
		if trail.Norm() < 0.1 {
			trail = mathx.V3(-1, 0, 0)
		}
	}
	offset := trail.Normalized().Scale(a.follow.StandoffM)
	goal := tgt.Add(offset)
	goal.Z = tgt.Z + a.follow.AltitudeM
	// Camera on target.
	a.yawTarget = math.Atan2(tgt.Y-goal.Y, tgt.X-goal.X)
	return control.Targets{
		Position: goal,
		Velocity: mathx.V3(vel.X, vel.Y, 0),
		Yaw:      a.yawTarget,
	}
}
