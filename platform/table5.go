package platform

import (
	"dronedse/components"
	"dronedse/core"
	"dronedse/mathx"
	"dronedse/slam"
)

// Table5Row is one column of the paper's Table 5 for one drone class.
type Table5Row struct {
	Platform        string
	Speedup         float64
	PowerOverheadW  float64
	WeightOverheadG float64
	IntegrationCost CostClass
	FabricationCost CostClass
	// GainedSmallMin / GainedLargeMin are the flight time gained (min)
	// vs. the RPi baseline on a small and a large drone, at the paper's
	// 15-minute baseline flight time.
	GainedSmallMin float64
	GainedLargeMin float64
}

// Table5BaselineFlightMin is the paper's stated baseline.
const Table5BaselineFlightMin = 15.0

// Hosting powers for the gained-flight-time arithmetic. Table 5's "power
// overhead" column lists the SLAM increment (RPi: 2 W), but the paper's
// §5.2 gain arithmetic swaps whole hosting platforms: the full RPi draws
// ~5 W with SLAM active (Figure 16a); the TX2/FPGA/ASIC numbers already are
// whole-platform envelopes.
func hostingPowerW(pl Platform) float64 {
	if pl.Name == "RPi" {
		return 5
	}
	return pl.PowerOverheadW
}

// Representative total power envelopes for the two drone classes in the
// gains arithmetic (§5.2 uses ≈50 W small and ≈140 W large totals; Table
// 5's published gains are consistent with ≈25 W / ≈75 W hover envelopes).
const (
	smallDroneTotalW = 25.0
	largeDroneTotalW = 75.0
)

// gainedVsRPi follows the paper's Equation 7 approximation: power saved
// over total power, times the 15-minute baseline. The paper's published
// gains are power-only — its own footnote that the ASIC beats the FPGA by
// "only 20 seconds" on small drones matches exactly this arithmetic, and
// the weight column is reported but not folded in. The full
// weight-ripple-resolved alternative is Table5Exact.
func gainedVsRPi(pl Platform, totalPowerW float64) float64 {
	saved := hostingPowerW(RPi()) - hostingPowerW(pl)
	return core.ApproxGainedFlightTimeMin(totalPowerW, saved, Table5BaselineFlightMin)
}

// Table5 computes the full platform-comparison table from the measured SLAM
// work ledger (for speedups) and the paper's gain arithmetic. stats should
// aggregate the 11 EuRoC sequences.
func Table5(stats []slam.Stats) []Table5Row {
	base := RPi()
	var rows []Table5Row
	for _, pl := range All() {
		var sp []float64
		for _, st := range stats {
			sp = append(sp, Speedup(base, pl, st))
		}
		rows = append(rows, Table5Row{
			Platform:        pl.Name,
			Speedup:         mathx.GeoMean(sp),
			PowerOverheadW:  pl.PowerOverheadW,
			WeightOverheadG: pl.WeightOverheadG,
			IntegrationCost: pl.IntegrationCost,
			FabricationCost: pl.FabricationCost,
			GainedSmallMin:  gainedVsRPi(pl, smallDroneTotalW),
			GainedLargeMin:  gainedVsRPi(pl, largeDroneTotalW),
		})
	}
	return rows
}

// Table5Exact recomputes the gained-flight-time columns with the full
// design-space closure (Equation 1 weight ripple included): the compute
// platform's weight changes motors, ESCs, and therefore power. This is the
// repo's ablation of the paper's power-only approximation; it shows the
// FPGA's +25 g over the RPi eats most of its power win on small drones.
func Table5Exact() (small, large map[string]float64, err error) {
	mkSmall := func(pl Platform) core.Spec {
		return core.Spec{
			WheelbaseMM: 200, Cells: 2, CapacityMah: 2700, TWR: 2,
			Compute: components.ComputeTier{
				Name:    "FC + " + pl.Name,
				PowerW:  1 + hostingPowerW(pl),
				WeightG: 10 + pl.WeightOverheadG,
			},
			ESCClass: components.LongFlight,
		}
	}
	mkLarge := func(pl Platform) core.Spec {
		return core.Spec{
			WheelbaseMM: 450, Cells: 3, CapacityMah: 3000, TWR: 2,
			Compute: components.ComputeTier{
				Name:    "Navio2 + " + pl.Name,
				PowerW:  1 + hostingPowerW(pl),
				WeightG: 25 + pl.WeightOverheadG,
			},
			ESCClass: components.LongFlight,
		}
	}
	small = map[string]float64{}
	large = map[string]float64{}
	for _, mk := range []struct {
		spec func(Platform) core.Spec
		out  map[string]float64
	}{{mkSmall, small}, {mkLarge, large}} {
		base, err := core.Resolve(mk.spec(RPi()))
		if err != nil {
			return nil, nil, err
		}
		baseMin := base.HoverFlightTimeMin()
		for _, pl := range All() {
			d, err := core.Resolve(mk.spec(pl))
			if err != nil {
				return nil, nil, err
			}
			mk.out[pl.Name] = (d.HoverFlightTimeMin() - baseMin) *
				(Table5BaselineFlightMin / baseMin)
		}
	}
	return small, large, nil
}
