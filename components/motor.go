package components

import "math"

// MotorWeightModel predicts the weight (g) of one motor able to produce
// maxThrustG of thrust. The fit is anchored on the paper's observation that
// motors span ~5 g on 100 mm drones to ~100 g on 1000 mm drones (§3.1):
// w = 0.0307 * T^1.106. Larger low-Kv motors for big props carry more poles
// and copper, which the exponent captures.
func MotorWeightModel(maxThrustG float64) float64 {
	if maxThrustG <= 0 {
		return 0
	}
	w := 0.0307 * math.Pow(maxThrustG, 1.106)
	if w < 2 {
		w = 2
	}
	return w
}

// PropellerWeightG estimates the weight (g) of one propeller of the given
// diameter in inches: ~1 g for 1" micro props up to ~25 g for 20" lifters.
func PropellerWeightG(propInches float64) float64 {
	w := 0.35*propInches*propInches*0.25 + 0.6*propInches
	if w < 0.5 {
		w = 0.5
	}
	return w
}
