package components

// BoardClass mirrors Table 4's grouping of flight controllers and
// computation hardware.
type BoardClass int

const (
	// BasicController provides only inner-loop functions with limited
	// outer-loop capabilities (Table 4 "Basic").
	BasicController BoardClass = iota
	// ImprovedController provides customizable inner-loop functions and
	// some outer-loop functions (Table 4 "Improved").
	ImprovedController
	// FPVCamera is a first-person-view camera (Table 4 external sensors).
	FPVCamera
	// LiDARUnit is a drone LiDAR solution; all are self-powered
	// stand-alone packages around 1 kg (§3.1).
	LiDARUnit
)

// Board is one row of Table 4: a flight controller, compute board, or
// external sensor with its weight and power draw.
type Board struct {
	Name    string
	Class   BoardClass
	WeightG float64
	// PowerW is the electrical power consumption in watts.
	PowerW float64
	// SelfPowered marks units that ship their own battery (the LiDARs);
	// their power does not load the main pack but their weight does.
	SelfPowered bool
}

// Table4 reproduces the paper's Table 4 inventory. Power figures are the
// published current @ 5 V converted to watts (e.g. Pixhawk 4: 400 mA@5 V =
// 2 W) or the published wattage.
func Table4() []Board {
	return []Board{
		// Basic flight controllers.
		{Name: "iFlight SucceX-E F4", Class: BasicController, WeightG: 7.6, PowerW: 0.5},
		{Name: "DJI NAZA-M Lite", Class: BasicController, WeightG: 66.3, PowerW: 1.5},
		{Name: "DJI NAZA-M V2", Class: BasicController, WeightG: 82, PowerW: 1.5},
		{Name: "Pixhawk 4", Class: BasicController, WeightG: 15.8, PowerW: 2},
		{Name: "Mateksys F405", Class: BasicController, WeightG: 17, PowerW: 1},
		// Improved controllers / compute boards.
		{Name: "Intel Aero", Class: ImprovedController, WeightG: 30, PowerW: 10},
		{Name: "Navio2", Class: ImprovedController, WeightG: 23, PowerW: 0.75},
		{Name: "Raspberry Pi 4", Class: ImprovedController, WeightG: 50, PowerW: 5},
		{Name: "Nvidia Jetson TX2", Class: ImprovedController, WeightG: 85, PowerW: 10},
		{Name: "DJI Manifold", Class: ImprovedController, WeightG: 200, PowerW: 20},
		// FPV cameras.
		{Name: "Eachine Bat 19S 800TVL", Class: FPVCamera, WeightG: 8, PowerW: 0.25},
		{Name: "RunCam Night Eagle 2", Class: FPVCamera, WeightG: 14.5, PowerW: 1},
		// LiDAR packages (self-powered, §3.1).
		{Name: "HoverMap", Class: LiDARUnit, WeightG: 1800, PowerW: 50, SelfPowered: true},
		{Name: "YellowScan Surveyor", Class: LiDARUnit, WeightG: 1600, PowerW: 15, SelfPowered: true},
		{Name: "Ultra Puck", Class: LiDARUnit, WeightG: 925, PowerW: 10, SelfPowered: true},
	}
}

// ComputeTier is the two-level abstraction §3.2 sweeps: a 3 W chip standing
// for a commercial ultra-low-power flight controller and a 20 W chip
// standing for a GPU-CPU (TX2-class) system.
type ComputeTier struct {
	Name    string
	PowerW  float64
	WeightG float64
}

// BasicComputeTier and AdvancedComputeTier are the paper's two modeled
// compute levels (§3.1 "we assumed two levels of power consumption: a 3 W
// and a 20 W chip").
var (
	BasicComputeTier    = ComputeTier{Name: "3W basic controller", PowerW: 3, WeightG: 20}
	AdvancedComputeTier = ComputeTier{Name: "20W GPU-CPU system", PowerW: 20, WeightG: 85}
)
