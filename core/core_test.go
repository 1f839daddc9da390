package core

import (
	"errors"
	"math"
	"testing"

	"dronedse/components"
	"dronedse/propulsion"
)

func mustResolve(t *testing.T, spec Spec) Design {
	t.Helper()
	d, err := Resolve(spec)
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", spec, err)
	}
	return d
}

// TestResolveValidation: every out-of-domain Spec field — out of range,
// negative where a weight or power must not be, NaN or infinite, an ESC
// class the survey does not have — is rejected with its typed error before
// it reaches the component fits.
func TestResolveValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Spec)
		want error
	}{
		{"tiny wheelbase", func(s *Spec) { s.WheelbaseMM = 10 }, ErrBadWheelbase},
		{"huge wheelbase", func(s *Spec) { s.WheelbaseMM = 1200 }, ErrBadWheelbase},
		{"NaN wheelbase", func(s *Spec) { s.WheelbaseMM = nan }, ErrBadWheelbase},
		{"7S", func(s *Spec) { s.Cells = 7 }, ErrBadCells},
		{"0S", func(s *Spec) { s.Cells = 0 }, ErrBadCells},
		{"zero capacity", func(s *Spec) { s.CapacityMah = 0 }, ErrBadCapacity},
		{"NaN capacity", func(s *Spec) { s.CapacityMah = nan }, ErrBadCapacity},
		{"+Inf capacity", func(s *Spec) { s.CapacityMah = inf }, ErrBadCapacity},
		{"TWR 1", func(s *Spec) { s.TWR = 1.0 }, ErrBadTWR},
		{"NaN TWR", func(s *Spec) { s.TWR = nan }, ErrBadTWR},
		{"+Inf TWR", func(s *Spec) { s.TWR = inf }, ErrBadTWR},
		{"negative compute weight", func(s *Spec) { s.Compute.WeightG = -10 }, ErrBadWeight},
		{"negative sensors weight", func(s *Spec) { s.SensorsG = -10 }, ErrBadWeight},
		{"negative payload", func(s *Spec) { s.PayloadG = -100 }, ErrBadWeight},
		{"NaN payload", func(s *Spec) { s.PayloadG = nan }, ErrBadWeight},
		{"+Inf payload", func(s *Spec) { s.PayloadG = inf }, ErrBadWeight},
		{"negative compute power", func(s *Spec) { s.Compute.PowerW = -50 }, ErrBadPower},
		{"NaN compute power", func(s *Spec) { s.Compute.PowerW = nan }, ErrBadPower},
		{"+Inf sensors power", func(s *Spec) { s.SensorsW = inf }, ErrBadPower},
		{"negative sensors power", func(s *Spec) { s.SensorsW = -1 }, ErrBadPower},
		{"unknown ESC class", func(s *Spec) { s.ESCClass = 7 }, ErrBadESCClass},
		{"negative ESC class", func(s *Spec) { s.ESCClass = -1 }, ErrBadESCClass},
	}
	for _, c := range cases {
		spec := DefaultSpec()
		c.edit(&spec)
		if _, err := Resolve(spec); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestResolveNeverPanics sets each float field of the default Spec to every
// special value in turn: Resolve must return a Design or an error, never
// panic, and a nil error must come with a finite design.
func TestResolveNeverPanics(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e-300, 1e300, math.MaxFloat64}
	fields := map[string]func(*Spec) *float64{
		"WheelbaseMM":     func(s *Spec) *float64 { return &s.WheelbaseMM },
		"CapacityMah":     func(s *Spec) *float64 { return &s.CapacityMah },
		"TWR":             func(s *Spec) *float64 { return &s.TWR },
		"Compute.PowerW":  func(s *Spec) *float64 { return &s.Compute.PowerW },
		"Compute.WeightG": func(s *Spec) *float64 { return &s.Compute.WeightG },
		"SensorsW":        func(s *Spec) *float64 { return &s.SensorsW },
		"SensorsG":        func(s *Spec) *float64 { return &s.SensorsG },
		"PayloadG":        func(s *Spec) *float64 { return &s.PayloadG },
	}
	for name, field := range fields {
		for _, v := range specials {
			spec := DefaultSpec()
			*field(&spec) = v
			d, err := Resolve(spec)
			if err != nil {
				continue
			}
			if ft := d.HoverFlightTimeMin(); math.IsNaN(d.TotalG) || math.IsInf(d.TotalG, 0) || math.IsNaN(ft) {
				t.Errorf("%s = %v: nil error with total %v g, flight %v min", name, v, d.TotalG, ft)
			}
		}
	}
}

func TestResolveClosureConsistency(t *testing.T) {
	d := mustResolve(t, DefaultSpec())
	sum := d.FrameG + d.BatteryG + 4*d.MotorUnitG + d.ESC4xG + d.PropsG +
		d.Spec.Compute.WeightG + d.Spec.SensorsG + d.Spec.PayloadG + d.WiringG
	if math.Abs(sum-d.TotalG) > 1e-6*d.TotalG {
		t.Errorf("breakdown sums to %v, total says %v", sum, d.TotalG)
	}
	if d.Iterations < 2 {
		t.Errorf("closure converged suspiciously fast (%d iterations)", d.Iterations)
	}
	if d.MotorMaxCurrentA <= d.RequiredCurrentA {
		t.Error("catalog oversizing must exceed the physics minimum")
	}
}

func TestResolveMonotonicInCapacity(t *testing.T) {
	spec := DefaultSpec()
	var prevW, prevP float64
	for cap := 1000.0; cap <= 8000; cap += 500 {
		spec.CapacityMah = cap
		d := mustResolve(t, spec)
		if d.TotalG <= prevW {
			t.Fatalf("total weight not increasing at %v mAh", cap)
		}
		if hp := d.HoverPowerW(); hp <= prevP {
			t.Fatalf("hover power not increasing with weight at %v mAh", cap)
		} else {
			prevP = hp
		}
		prevW = d.TotalG
	}
}

func TestResolveCurrentDropsWithCells(t *testing.T) {
	spec := DefaultSpec()
	var prev float64 = math.Inf(1)
	for cells := 1; cells <= 6; cells++ {
		spec.Cells = cells
		spec.CapacityMah = 3000
		d := mustResolve(t, spec)
		if d.RequiredCurrentA >= prev {
			t.Fatalf("%dS current %v not below %v (Figure 9 voltage ordering)",
				cells, d.RequiredCurrentA, prev)
		}
		prev = d.RequiredCurrentA
	}
}

// TestOurDroneCalibration anchors the model on the paper's measured
// whole-drone power: the open-source 450 mm F450 with RPi+Navio2 averaged
// 130 W at a ~30% flying load (§5.1, Figure 16b).
func TestOurDroneCalibration(t *testing.T) {
	spec := DefaultSpec()
	spec.Compute = components.ComputeTier{Name: "RPi+Navio2", PowerW: 6, WeightG: 73}
	d := mustResolve(t, spec)
	p30 := d.AvgPowerW(0.30)
	if p30 < 100 || p30 > 160 {
		t.Errorf("modeled 30%%-load power = %.1f W, want ~130 W (paper measurement)", p30)
	}
	if d.TotalG < 850 || d.TotalG > 1250 {
		t.Errorf("modeled total weight = %.0f g, want ~1071 g (Figure 14)", d.TotalG)
	}
	// Maneuvering spikes: paper saw up to 250 W at 58% load.
	p58 := d.AvgPowerW(0.58)
	if p58 < 180 || p58 > 300 {
		t.Errorf("modeled 58%%-load power = %.1f W, want ~250 W", p58)
	}
}

// TestPhantomValidation mirrors the paper's Figure 10 validation: the model
// at a Phantom-4-class weight must produce a hover power near the one derived
// from the product's published battery and flight time.
func TestPhantomValidation(t *testing.T) {
	var phantom components.CommercialDrone
	for _, cd := range components.CommercialDrones() {
		if cd.Name == "DJI Phantom 4" {
			phantom = cd
		}
	}
	if phantom.Name == "" {
		t.Fatal("Phantom 4 missing from validation set")
	}
	// Find the sweep point closest to the Phantom's takeoff weight.
	spec := Spec{WheelbaseMM: 450, Cells: 4, TWR: 2,
		Compute:     components.ComputeTier{Name: "phantom avionics", PowerW: 3, WeightG: 30},
		CapacityMah: 1000, ESCClass: components.LongFlight}
	pts := mustSweep(t, spec, 1000, 9000, 100)
	bestDiff := math.Inf(1)
	var at SweepPoint
	for _, pt := range pts {
		if d := math.Abs(pt.TotalWeightG - phantom.TakeoffWeightG); d < bestDiff {
			bestDiff, at = d, pt
		}
	}
	if bestDiff > 120 {
		t.Fatalf("no sweep point near Phantom weight (closest off by %.0f g)", bestDiff)
	}
	derived := phantom.HoverPowerW()
	if at.HoverPowerW < derived*0.6 || at.HoverPowerW > derived*1.6 {
		t.Errorf("model hover power at Phantom weight = %.0f W, derived-from-specs = %.0f W (want within ±40%%)",
			at.HoverPowerW, derived)
	}
}

func TestFlightTimeEquation(t *testing.T) {
	d := mustResolve(t, DefaultSpec())
	// Equation 5 consistency: time * power == usable energy.
	ft := d.HoverFlightTimeMin()
	back := ft / 60 * d.HoverPowerW()
	if math.Abs(back-d.UsableEnergyWh()) > 1e-9 {
		t.Errorf("flight time inconsistent: %v Wh back-computed vs %v usable", back, d.UsableEnergyWh())
	}
	// Drain limit and distribution efficiency must derate rated energy.
	rated := d.Spec.CapacityMah / 1000 * d.Voltage()
	if d.UsableEnergyWh() >= rated*0.85 {
		t.Error("usable energy must be below the 85% drain limit after PowerEff")
	}
	if d.FlightTimeMin(-1) != d.FlightTimeMin(0) {
		t.Error("negative load not clamped")
	}
}

func TestComputeSharePct(t *testing.T) {
	spec := DefaultSpec()
	spec.Compute = components.AdvancedComputeTier
	d := mustResolve(t, spec)
	h := d.ComputeSharePct(propulsion.HoverLoadFraction)
	m := d.ComputeSharePct(propulsion.ManeuverLoadFraction)
	if h <= m {
		t.Errorf("hover share %v%% must exceed maneuver share %v%% (Figure 10d-f)", h, m)
	}
	if h <= 0 || h >= 100 {
		t.Errorf("share out of range: %v", h)
	}
}

// TestFigure10ShareBands checks the paper's two headline footprint numbers:
// 3 W chips contribute <5% of total power, and the 20 W system while moving
// drops to ~10% or less on medium/large drones.
func TestFigure10ShareBands(t *testing.T) {
	for _, wb := range []float64{450, 800} {
		basic := Spec{WheelbaseMM: wb, Cells: 3, CapacityMah: 1000, TWR: 2,
			Compute: components.BasicComputeTier, ESCClass: components.LongFlight}
		for _, pt := range mustSweep(t, basic, 1000, 8000, 500) {
			// Paper: "3 W chips have less than 5% contribution"; allow
			// a point of slack at the very light end of the sweep.
			if pt.ComputeShareHoverPct >= 6 {
				t.Errorf("wb=%v w=%.0fg: 3 W share %.1f%%, paper says <5%%",
					wb, pt.TotalWeightG, pt.ComputeShareHoverPct)
			}
		}
		adv := basic
		adv.Compute = components.AdvancedComputeTier
		for _, pt := range mustSweep(t, adv, 1000, 8000, 500) {
			if pt.ComputeShareManeuverPct > 12 {
				t.Errorf("wb=%v w=%.0fg: 20 W maneuvering share %.1f%%, paper says drops to ~10%%",
					wb, pt.TotalWeightG, pt.ComputeShareManeuverPct)
			}
			if pt.ComputeShareHoverPct < 2 || pt.ComputeShareHoverPct > 35 {
				t.Errorf("wb=%v w=%.0fg: 20 W hovering share %.1f%%, outside Figure 10's 2-35%% envelope",
					wb, pt.TotalWeightG, pt.ComputeShareHoverPct)
			}
		}
	}
}

// TestComputationPowerRange verifies the abstract's 2-30% computation power
// envelope across the studied design space.
func TestComputationPowerRange(t *testing.T) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, wb := range []float64{100, 450, 800} {
		for _, tier := range []components.ComputeTier{components.BasicComputeTier, components.AdvancedComputeTier} {
			s := Spec{WheelbaseMM: wb, Cells: 3, CapacityMah: 1000, TWR: 2, Compute: tier, ESCClass: components.LongFlight}
			for _, pt := range mustSweep(t, s, 1000, 8000, 1000) {
				if pt.ComputeShareHoverPct < lo {
					lo = pt.ComputeShareHoverPct
				}
				if pt.ComputeShareHoverPct > hi {
					hi = pt.ComputeShareHoverPct
				}
			}
		}
	}
	if lo > 3 {
		t.Errorf("min hover compute share %.1f%%, paper's range starts ~2%%", lo)
	}
	if hi < 15 || hi > 40 {
		t.Errorf("max hover compute share %.1f%%, paper's range tops ~30%%", hi)
	}
}

func TestGainedFlightTime(t *testing.T) {
	spec := DefaultSpec()
	spec.Compute = components.ComputeTier{Name: "TX2-class", PowerW: 10, WeightG: 85}
	base := mustResolve(t, spec)
	load := propulsion.HoverLoadFraction

	// Swapping to an FPGA-class platform (0.417 W, 75 g) must gain time.
	gain, err := GainedFlightTimeMin(base, 0.417, 75, load)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 {
		t.Errorf("FPGA swap gained %v min, want positive", gain)
	}
	// Swapping the other way (to a heavier, hungrier platform) must lose.
	loss, err := GainedFlightTimeMin(base, 20, 200, load)
	if err != nil {
		t.Fatal(err)
	}
	if loss >= 0 {
		t.Errorf("heavier platform gained %v min, want negative", loss)
	}
}

func TestApproxGainedFlightTime(t *testing.T) {
	// The paper's own example: saving 10 W on a 140 W drone with a 15 min
	// baseline gives ~+1 minute.
	got := ApproxGainedFlightTimeMin(140, 10, 15)
	if math.Abs(got-15.0*10/140) > 1e-12 {
		t.Errorf("approx gain = %v", got)
	}
	if ApproxGainedFlightTimeMin(0, 10, 15) != 0 {
		t.Error("degenerate total power should return 0")
	}
}

func TestBestConfig(t *testing.T) {
	spec := Spec{WheelbaseMM: 450, TWR: 2, Compute: components.BasicComputeTier,
		Cells: 3, CapacityMah: 1000, ESCClass: components.LongFlight}
	best, ok := mustBest(t, spec, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 500)
	if !ok {
		t.Fatal("no feasible configuration at 450 mm")
	}
	ft := best.HoverFlightTimeMin()
	if ft < 15 || ft > 45 {
		t.Errorf("best 450 mm flight time = %.1f min, implausible (paper annotates 19 min; see EXPERIMENTS.md)", ft)
	}
	// Every other swept configuration must not beat it.
	for cells := 1; cells <= 6; cells++ {
		s := spec
		s.Cells = cells
		for _, pt := range mustSweep(t, s, 1000, 8000, 500) {
			if pt.HoverFlightMin > ft+1e-9 {
				t.Fatalf("sweep point beats best config: %v > %v", pt.HoverFlightMin, ft)
			}
		}
	}
}

func TestSweepCapacitySkipsInfeasible(t *testing.T) {
	// A 1S pack cannot lift an 800 mm monster at big capacities — points
	// either resolve or are skipped, never panic.
	spec := Spec{WheelbaseMM: 800, Cells: 1, CapacityMah: 1000, TWR: 2,
		Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight}
	pts := mustSweep(t, spec, 1000, 8000, 1000)
	for _, pt := range pts {
		if pt.TotalWeightG <= 0 || math.IsNaN(pt.HoverPowerW) {
			t.Fatalf("invalid sweep point: %+v", pt)
		}
	}
}

func TestSensorsAndPayloadRipple(t *testing.T) {
	base := mustResolve(t, DefaultSpec())
	loaded := DefaultSpec()
	loaded.SensorsG = 925 // Ultra Puck LiDAR weight, self-powered
	loaded.PayloadG = 200
	d := mustResolve(t, loaded)
	if d.TotalG <= base.TotalG+1125 {
		t.Error("payload must ripple through motors/ESCs, not just add linearly")
	}
	if d.HoverPowerW() <= base.HoverPowerW() {
		t.Error("heavier drone must hover at higher power")
	}
	if d.HoverFlightTimeMin() >= base.HoverFlightTimeMin() {
		t.Error("payload must cost flight time")
	}
}

func TestEquation7SmallVsLargeSensitivity(t *testing.T) {
	// §7: for small drones improving power efficiency buys flight time;
	// for heavy drones (>~2 kg) the effect fades. Compare the relative
	// gain of saving 5 W of compute on a small vs a large design.
	small := mustResolve(t, Spec{WheelbaseMM: 200, Cells: 2, CapacityMah: 2000, TWR: 2,
		Compute: components.ComputeTier{Name: "5W", PowerW: 5, WeightG: 50}, ESCClass: components.LongFlight})
	large, err := Resolve(Spec{WheelbaseMM: 800, Cells: 6, CapacityMah: 8000, TWR: 2,
		Compute: components.ComputeTier{Name: "5W", PowerW: 5, WeightG: 50}, ESCClass: components.LongFlight})
	if err != nil {
		t.Fatal(err)
	}
	gainSmall, err := GainedFlightTimeMin(small, 0.4, 50, propulsion.HoverLoadFraction)
	if err != nil {
		t.Fatal(err)
	}
	gainLarge, err := GainedFlightTimeMin(large, 0.4, 50, propulsion.HoverLoadFraction)
	if err != nil {
		t.Fatal(err)
	}
	relSmall := gainSmall / small.HoverFlightTimeMin()
	relLarge := gainLarge / large.HoverFlightTimeMin()
	if relSmall <= relLarge {
		t.Errorf("relative gain small %.3f <= large %.3f; paper says small drones benefit more", relSmall, relLarge)
	}
}
