// Design sweep: walk the Figure 12 procedure across frame sizes — estimate
// weight, close the motor/ESC/battery loop, and compare the compute power
// footprint of a 3 W controller vs a 20 W GPU-CPU system on each class.
package main

import (
	"errors"
	"fmt"
	"log"

	"dronedse/components"
	"dronedse/core"
)

func main() {
	params := core.DefaultParams()
	tiers := []components.ComputeTier{components.BasicComputeTier, components.AdvancedComputeTier}

	for _, wb := range []float64{100, 200, 450, 800} {
		fmt.Printf("=== %.0f mm wheelbase ===\n", wb)
		for _, tier := range tiers {
			spec := core.Spec{
				WheelbaseMM: wb, Cells: 3, CapacityMah: 1000, TWR: 2,
				Compute: tier, ESCClass: components.LongFlight,
			}
			best, err := core.BestConfig(spec, params, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 250)
			if errors.Is(err, core.ErrNoConverge) {
				fmt.Printf("  %-22s infeasible\n", tier.Name)
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-22s best %dS %4.0f mAh: %5.0f g, %6.1f W hover, %5.1f min, compute %4.1f%%\n",
				tier.Name, best.Spec.Cells, best.Spec.CapacityMah, best.TotalG,
				best.HoverPowerW(), best.HoverFlightTimeMin(),
				best.ComputeSharePct(params.HoverLoad))
		}
		// What the 17 W difference costs on this class (Equation 7).
		spec := core.Spec{
			WheelbaseMM: wb, Cells: 3, CapacityMah: 4000, TWR: 2,
			Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight,
		}
		d, err := core.Resolve(spec, params)
		if err != nil {
			log.Printf("  (4000 mAh 3S infeasible at %.0f mm)", wb)
			continue
		}
		gained, err := core.GainedFlightTimeMin(d,
			components.BasicComputeTier.PowerW, components.BasicComputeTier.WeightG,
			params.HoverLoad)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  downgrading 20 W -> 3 W compute on a 3S 4000 mAh build: %+.1f min\n\n", gained)
	}
}
