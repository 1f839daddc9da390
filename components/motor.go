package components

import (
	"fmt"
	"math"
	"math/rand"

	"dronedse/mathx"
	"dronedse/propulsion"
	"dronedse/units"
)

// Motor is one commercial BLDC motor product, characterized the way
// manufacturer thrust tables do: at a reference propeller and pack voltage.
type Motor struct {
	Name         string
	Manufacturer string
	// Kv is the velocity constant in RPM/V (Table 3).
	Kv float64
	// WeightG is the weight of one motor in grams.
	WeightG float64
	// PropInches is the reference propeller diameter.
	PropInches float64
	// Cells is the reference supply (battery cell count).
	Cells int
	// MaxThrustG is the maximum thrust (gram-force) at the reference
	// propeller and voltage.
	MaxThrustG float64
	// MaxCurrentA is the current draw at maximum thrust.
	MaxCurrentA float64
}

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

// DesignMotor synthesizes the best-matching motor for a required maximum
// thrust per motor (gram-force), a propeller diameter, and a pack cell
// count, using the propulsion physics for Kv and current. This is the
// "choose the best matching motor from data released by 150 manufacturers"
// step of §3.1.
func DesignMotor(maxThrustG, propInches float64, cells int) Motor {
	v := units.CellsToVoltage(cells)
	d := units.InchToMeter(propInches)
	tN := units.GramsToNewtons(maxThrustG)
	eff := propulsion.DefaultEfficiencies()
	return Motor{
		Name:        fmt.Sprintf("synthetic %0.0fKv %0.0f\"", propulsion.KvForDesign(tN, d, v), propInches),
		Kv:          propulsion.KvForDesign(tN, d, v),
		WeightG:     MotorWeightModel(maxThrustG),
		PropInches:  propInches,
		Cells:       cells,
		MaxThrustG:  maxThrustG,
		MaxCurrentA: propulsion.MotorCurrent(tN, d, v, eff),
	}
}

var motorVendors = []string{
	"T-Motor", "EMAX", "iFlight", "BrotherHobby", "SunnySky", "Cobra",
	"DYS", "RCTimer", "Tarot", "XING", "Hypetrain", "Lumenier", "AOKFly",
	"Racerstar", "Flash Hobby",
}

// GenerateMotorSurvey synthesizes the motor dataset of Figure 9: products
// from (nominally) 150 manufacturers across the five wheelbase classes and
// all six supply voltages. Each entry perturbs the physics-designed motor
// the way real product lines scatter around the trend.
func GenerateMotorSurvey(seed int64) []Motor {
	r := rand.New(mathx.NewSource(seed))
	classes := []struct {
		prop      float64
		minThrust float64 // gram-force per motor at TWR=2
		maxThrust float64
	}{
		{1, 30, 300},
		{2, 60, 600},
		{5, 150, 1200},
		{10, 300, 2500},
		{20, 800, 6000},
	}
	var out []Motor
	id := 0
	for _, c := range classes {
		for cells := 1; cells <= 6; cells++ {
			for k := 0; k < 5; k++ { // 5 products per class/voltage
				t := c.minThrust + r.Float64()*(c.maxThrust-c.minThrust)
				m := DesignMotor(t, c.prop, cells)
				m.Manufacturer = motorVendors[id%len(motorVendors)]
				m.Name = fmt.Sprintf("%s %0.0fKv-%d", m.Manufacturer, m.Kv, id)
				m.WeightG *= 1 + 0.08*r.NormFloat64()
				m.MaxCurrentA *= 1 + 0.05*r.NormFloat64()
				m.Kv *= 1 + 0.05*r.NormFloat64()
				out = append(out, m)
				id++
			}
		}
	}
	return out
}

// SelectMotor returns the catalog motor best matching a thrust requirement
// (lightest motor whose reference prop/cells match and whose MaxThrustG
// meets the requirement), or ok=false.
func SelectMotor(survey []Motor, requiredThrustG, propInches float64, cells int) (Motor, bool) {
	best := Motor{}
	found := false
	for _, m := range survey {
		if m.Cells != cells || math.Abs(m.PropInches-propInches) > 0.51 || m.MaxThrustG < requiredThrustG {
			continue
		}
		if !found || m.WeightG < best.WeightG {
			best, found = m, true
		}
	}
	return best, found
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
