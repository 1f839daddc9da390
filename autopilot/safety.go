package autopilot

import (
	"math"

	"dronedse/mathx"
	"dronedse/units"
)

// The energy policy is the outer-loop flight-time management duty of
// Table 1 (Config.EnergyPolicy arms it): monitor the battery and the energy
// needed to get home, and bail out with margin.
const (
	// energyReserve scales the estimated return energy (1.5 = 50% margin).
	energyReserve = 1.5
	// returnCruiseMS is the assumed return speed.
	returnCruiseMS = 4
)

// EstimatedReturnEnergyWh estimates the energy to fly home and land from
// the present position at the policy's cruise speed, using the recent
// average total power.
func (a *Autopilot) EstimatedReturnEnergyWh() float64 {
	est := a.EstimatedState().Pos
	dist := est.Sub(a.home).Norm()
	cruiseS := dist / returnCruiseMS
	descentS := est.Z / 1.5 // landing descent at ~1.5 m/s
	p := a.avgPowerW
	if p <= 0 {
		p = a.TotalPowerW()
	}
	return p * (cruiseS + descentS) / 3600
}

// RemainingEnergyWh is the usable energy left in the pack before the LiPo
// drain limit.
func (a *Autopilot) RemainingEnergyWh() float64 {
	if a.battery == nil {
		return math.Inf(1)
	}
	full := a.battery.UsableEnergyWh()
	soc := a.battery.StateOfCharge()
	// Usable fraction remaining: SoC spans [1-drainLimit, 1].
	used := (1 - soc) / units.LiPoDrainLimit
	if used > 1 {
		used = 1
	}
	return full * (1 - used)
}

// GPS-denial failsafe thresholds: once a declared denial has both lasted
// past the grace period and inflated the horizontal position uncertainty
// beyond the limit, the autopilot stops trusting the mission geometry and
// returns home on the coasting estimate (ArduCopter's EKF failsafe makes
// the same escalation).
const (
	gpsDenialGraceS      = 3.0
	gpsUncertaintyLimitM = 6.0
)

// crashTiltRad is the crash-check attitude threshold: a quadrotor past
// ~75 degrees of tilt while the controller is demanding level flight is
// unrecoverable; the check disarms to stop the motors (ArduCopter's crash
// check does the same).
const crashTiltRad = 75 * math.Pi / 180

// checkSafety runs the outer-loop safety monitors; called from Step at the
// mission-logic rate.
func (a *Autopilot) checkSafety() {
	if a.mode == Disarmed || a.mode == Failsafe {
		return
	}
	// Crash check: extreme attitude means control is lost (e.g. a failed
	// motor); cut the motors rather than fight physics.
	est := a.EstimatedState()
	up := est.Att.Rotate(mathx.V3(0, 0, 1))
	if math.Acos(mathx.Clamp(up.Z, -1, 1)) > crashTiltRad {
		a.lastEvent = "crash detected: disarm"
		a.mode = Disarmed
		return
	}
	if a.mode == Land {
		return
	}
	// GPS-denial escalation: coasting is fine for a few seconds, but a
	// sustained denial with a diverging estimate ends the mission.
	if a.gpsDenied && a.mode != ReturnToLaunch {
		if a.Time()-a.gpsDeniedAt > gpsDenialGraceS &&
			a.est.Pos.PositionUncertainty() > gpsUncertaintyLimitM {
			a.lastEvent = "gps denied, estimate degraded: RTL"
			a.mode = ReturnToLaunch
			return
		}
	}
	if a.energyRTL && a.battery != nil && a.mode != ReturnToLaunch {
		if a.RemainingEnergyWh() < a.EstimatedReturnEnergyWh()*energyReserve {
			a.lastEvent = "energy reserve reached: RTL"
			a.mode = ReturnToLaunch
		}
	}
}

// LastEvent returns the most recent safety event description (empty when
// none fired).
func (a *Autopilot) LastEvent() string { return a.lastEvent }
