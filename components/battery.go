// Package components reproduces the paper's commercial-component survey
// (§3.1): 250 LiPo batteries, 40 ESCs, 25 frames, motor data from 150
// manufacturers, and the flight controller / compute board / sensor specs of
// Table 4. The paper scraped real spec sheets; since those sheets are not
// shipped with the paper, the catalogs here are synthesized deterministically
// around the regression lines the paper publishes, with realistic scatter and
// ranges, so that the fitting pipeline (dronedse/fit) re-derives the paper's
// formulas and every downstream consumer (dronedse/core) is exercised exactly
// as in the paper.
package components

import (
	"fmt"
	"math/rand"

	"dronedse/fit"
	"dronedse/mathx"
	"dronedse/units"
)

// Battery is one commercial LiPo battery product.
type Battery struct {
	Name         string
	Manufacturer string
	// Cells is the series cell count (xS); nominal voltage is 3.7 V/cell.
	Cells int
	// CapacityMah is the rated capacity in mAh.
	CapacityMah float64
	// WeightG is the product weight in grams, including casing, wires and
	// protection circuits (§3.1: the end product, not bare cells).
	WeightG float64
	// DischargeC is the battery's C rating (Table 3).
	DischargeC float64
}

// Voltage returns the pack's nominal voltage.
func (b Battery) Voltage() float64 { return units.CellsToVoltage(b.Cells) }

// EnergyWh returns the rated stored energy in watt-hours.
func (b Battery) EnergyWh() float64 { return units.MahToWh(b.CapacityMah, b.Voltage()) }

// MaxContinuousCurrentA returns the safe continuous current per Table 3.
func (b Battery) MaxContinuousCurrentA() float64 {
	return units.CRatingMaxCurrent(b.CapacityMah, b.DischargeC)
}

// BatteryLine holds the published Figure 7 weight(g) = Slope*capacity(mAh) +
// Intercept relationship for one cell configuration.
type BatteryLine struct {
	Slope     float64
	Intercept float64
}

// Figure7Lines are the capacity-to-weight lines the paper extracts from 250
// commercial batteries, keyed by cell count (Figure 7 legend, top to bottom).
var Figure7Lines = map[int]BatteryLine{
	6: {0.116, 159.117},
	5: {0.118, 45.478},
	4: {0.077, 81.265},
	3: {0.074, 16.935},
	2: {0.050, 12.316},
	1: {0.019, 4.856},
}

// BatteryWeightModel predicts the weight in grams of a LiPo pack with the
// given cell count and capacity using the Figure 7 relationships. Cell counts
// outside 1-6 are clamped into range.
func BatteryWeightModel(cells int, capacityMah float64) float64 {
	if cells < 1 {
		cells = 1
	}
	if cells > 6 {
		cells = 6
	}
	l := Figure7Lines[cells]
	return l.Slope*capacityMah + l.Intercept
}

// capacityRange gives realistic mAh spans per configuration: high-voltage
// packs for big drones skew large, 1S toy packs skew small.
func capacityRange(cells int) (lo, hi float64) {
	switch cells {
	case 1:
		return 150, 3500
	case 2:
		return 300, 5500
	case 3:
		return 450, 8000
	case 4:
		return 650, 9000
	case 5:
		return 1000, 10000
	default: // 6S
		return 1300, 10000
	}
}

var batteryVendors = []string{
	"Tattu", "Turnigy", "Gens Ace", "CNHL", "Zeee", "Ovonic", "HRB",
	"Venom", "Lumenier", "ThunderPower", "Zippy", "GoldBat", "Spektrum",
	"Dinogy", "RDQ", "MaxAmps", "Infinity", "Bonka", "Pulse", "Floureon",
}

// GenerateBatteryCatalog returns a deterministic 250-battery catalog whose
// per-configuration regressions reproduce the paper's Figure 7 lines: ~42
// products per cell count, capacities spanning the configuration's market
// range, weights scattered around the published line, and discharge rates of
// 20-120C that (as the paper observes) thicken the scatter without moving
// the fitted lines.
func GenerateBatteryCatalog(seed int64) []Battery {
	r := rand.New(mathx.NewSource(seed))
	const total = 250
	var out []Battery
	for i := 0; i < total; i++ {
		cells := 1 + i%6 // round-robin keeps ~42 per configuration
		lo, hi := capacityRange(cells)
		cap := lo + r.Float64()*(hi-lo)
		cap = float64(int(cap/50)) * 50 // products come in 50 mAh steps
		if cap < lo {
			cap = lo
		}
		base := BatteryWeightModel(cells, cap)
		// Scatter: manufacturing variance plus a mild positive pull from
		// high discharge rates (heavier tabs/wires), ~5% band.
		c := 20 + float64(r.Intn(11))*10 // 20..120 C
		weight := base * (1 + 0.05*r.NormFloat64() + 0.0003*(c-60))
		if weight < 3 {
			weight = 3
		}
		vendor := batteryVendors[r.Intn(len(batteryVendors))]
		out = append(out, Battery{
			Name:         fmt.Sprintf("%s %dS %.0fmAh %0.0fC", vendor, cells, cap, c),
			Manufacturer: vendor,
			Cells:        cells,
			CapacityMah:  cap,
			WeightG:      weight,
			DischargeC:   c,
		})
	}
	return out
}

// FitBatteryCatalog regresses weight against capacity per cell configuration,
// reproducing Figure 7's extraction step.
func FitBatteryCatalog(batteries []Battery) (map[int]fit.Linear, error) {
	groups := make(map[int][]fit.Point)
	for _, b := range batteries {
		groups[b.Cells] = append(groups[b.Cells], fit.Point{X: b.CapacityMah, Y: b.WeightG})
	}
	return fit.GroupedFit(groups)
}

// SelectBattery returns the lightest catalog battery with at least the given
// cell count and capacity, or ok=false when none exists. The design-space
// search (dronedse/core) uses the analytic model instead; this helper shops
// the catalog directly.
func SelectBattery(catalog []Battery, cells int, minCapacityMah float64) (Battery, bool) {
	best := Battery{}
	found := false
	for _, b := range catalog {
		if b.Cells != cells || b.CapacityMah < minCapacityMah {
			continue
		}
		if !found || b.WeightG < best.WeightG {
			best, found = b, true
		}
	}
	return best, found
}
