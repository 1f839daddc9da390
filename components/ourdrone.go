package components

// WeightItem is one slice of the open-source drone's weight breakdown
// (Figure 14).
type WeightItem struct {
	Name    string
	WeightG float64
}

// OurDroneBreakdown reproduces Figure 14: the weight breakdown of the
// paper's open-source 450 mm drone (Crazepony F450 frame, Navio2 + RPi).
func OurDroneBreakdown() []WeightItem {
	return []WeightItem{
		{"Frame", 272},
		{"Battery", 248},
		{"Motors", 220},
		{"ESC", 112},
		{"RPi", 50},
		{"Propellers", 40},
		{"GPS", 30},
		{"Navio2", 23},
		{"Misc", 20},
		{"RC Receiver", 17},
		{"Telemetry", 15},
		{"Power Module", 15},
		{"PPM Encoder", 9},
	}
}

// OurDroneTotalWeightG sums the Figure 14 breakdown (~1061 g).
func OurDroneTotalWeightG() float64 {
	total := 0.0
	for _, it := range OurDroneBreakdown() {
		total += it.WeightG
	}
	return total
}
