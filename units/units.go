// Package units collects the physical constants and unit conversions used by
// the drone design-space model. Keeping them in one place makes the paper's
// equations (§3.2, Equations 1-7) readable in code: weights are grams, power
// is watts, capacity is mAh, and cell counts map to nominal pack voltages.
package units

import "math"

// Physical constants.
const (
	// Gravity is standard gravitational acceleration in m/s^2.
	Gravity = 9.80665
	// AirDensity is sea-level standard air density in kg/m^3.
	AirDensity = 1.225
	// LiPoCellVoltage is the nominal per-cell voltage of a LiPo battery
	// (§2.1.2: 3.7 V/cell).
	LiPoCellVoltage = 3.7
	// LiPoDrainLimit is the usable fraction of LiPo capacity during a
	// flight (§2.1.2: only 85% of capacity should be used).
	LiPoDrainLimit = 0.85
)

// CellsToVoltage returns the nominal pack voltage for an xS LiPo battery.
func CellsToVoltage(cells int) float64 { return float64(cells) * LiPoCellVoltage }

// GramsToNewtons converts a mass in grams to its weight force in newtons.
func GramsToNewtons(grams float64) float64 { return grams / 1000 * Gravity }

// MahToWh converts battery capacity in mAh at a pack voltage to watt-hours.
func MahToWh(mah, voltage float64) float64 { return mah / 1000 * voltage }

// InchToMeter converts propeller diameter in inches to meters.
func InchToMeter(in float64) float64 { return in * 0.0254 }

// DiskArea returns the actuator disk area (m^2) of a propeller with the given
// diameter in meters.
func DiskArea(diameterM float64) float64 {
	r := diameterM / 2
	return math.Pi * r * r
}

// RadPerSecToRPM converts rad/s to rotations per minute.
func RadPerSecToRPM(w float64) float64 { return w * 60 / (2 * math.Pi) }

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// CRatingMaxCurrent returns the maximum continuous current (A) a battery can
// safely supply given its capacity in mAh and its C rating (Table 3:
// Capacity(Ah) x C = I).
func CRatingMaxCurrent(capacityMah, cRating float64) float64 {
	return capacityMah / 1000 * cRating
}
