package core

import (
	"errors"
	"math"
	"testing"

	"dronedse/components"
)

// TestFigure9Lines checks the Figure 9 reproduction: per-motor max current
// rises with basic weight, falls with supply voltage, and the Kv annotations
// follow the paper's extremes (tiny wheelbase + low cells = extreme Kv;
// large wheelbase + high cells = low Kv).
func TestFigure9Lines(t *testing.T) {
	p := DefaultParams()
	// Weight spans follow the paper's per-wheelbase axes. (Unlike the
	// paper's extrapolated lines, the closure exposes that tiny props
	// cannot lift heavy basic weights — ESC/motor weight growth outruns
	// thrust — so small wheelbases use the light end of their axes.)
	weightsFor := map[float64][]float64{
		50:  {30, 40, 50, 60},
		100: {100, 150, 200, 300},
		200: {150, 300, 500, 700},
		450: {300, 600, 900, 1200},
		800: {800, 1400, 2000, 2600},
	}

	for _, wb := range []float64{50, 100, 200, 450, 800} {
		weights := weightsFor[wb]
		for cells := 1; cells <= 6; cells++ {
			pts := MotorCurrentVsBasicWeight(wb, cells, 2, p, weights)
			if len(pts) == 0 {
				t.Fatalf("wb=%v cells=%d: no feasible points", wb, cells)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].CurrentA <= pts[i-1].CurrentA {
					t.Fatalf("wb=%v cells=%d: current not increasing with basic weight", wb, cells)
				}
			}
		}
		// Voltage ordering at fixed basic weight.
		mid := weights[1]
		lo := MotorCurrentVsBasicWeight(wb, 2, 2, p, []float64{mid})
		hi := MotorCurrentVsBasicWeight(wb, 6, 2, p, []float64{mid})
		if len(lo) == 1 && len(hi) == 1 && hi[0].CurrentA >= lo[0].CurrentA {
			t.Errorf("wb=%v: 6S current %v >= 2S current %v", wb, hi[0].CurrentA, lo[0].CurrentA)
		}
	}

	// Kv extremes (Figure 9a vs 9d annotations): a 50 mm 1S micro lands
	// near the paper's 51000 Kv callout, a 800 mm 6S lifter in the low
	// hundreds.
	tiny := MotorCurrentVsBasicWeight(50, 1, 2, p, []float64{50})
	big := MotorCurrentVsBasicWeight(800, 6, 2, p, []float64{2000})
	if len(tiny) != 1 || len(big) != 1 {
		t.Fatal("anchor points infeasible")
	}
	if tiny[0].Kv < 10000 {
		t.Errorf("50 mm 1S Kv = %v, want extreme (paper annotates 51000)", tiny[0].Kv)
	}
	if big[0].Kv > 2500 {
		t.Errorf("800 mm 6S Kv = %v, want low (paper annotates 420-1030)", big[0].Kv)
	}
	if tiny[0].Kv < 5*big[0].Kv {
		t.Error("Kv spread between extremes too small")
	}
}

func TestMotorCurrentVsBasicWeightSkipsInfeasible(t *testing.T) {
	p := DefaultParams()
	pts := MotorCurrentVsBasicWeight(100, 1, 2, p, []float64{1e9})
	for _, pt := range pts {
		if math.IsNaN(pt.CurrentA) || pt.CurrentA < 0 {
			t.Fatalf("invalid point: %+v", pt)
		}
	}
}

func TestMinFeasibleBasicWeight(t *testing.T) {
	p := DefaultParams()
	prev := 0.0
	for _, wb := range []float64{50, 100, 200, 450, 800} {
		w := MinFeasibleBasicWeightG(wb, p)
		if w <= prev {
			t.Fatalf("min feasible weight not increasing at %v mm", wb)
		}
		prev = w
	}
	// A 450 mm class can't be built under ~400 g of basic weight with the
	// published frame line.
	if w := MinFeasibleBasicWeightG(450, p); w < 300 || w > 700 {
		t.Errorf("450 mm min basic weight = %v g, implausible", w)
	}
}

// TestFigure10PowerLevels sanity-checks the absolute power axes against the
// paper's plots: a ~1350 g 450 mm drone sits in the 100-300 W band, and the
// whole-drone average for the paper's own 1071 g build is ~130 W at 30% load.
func TestFigure10PowerLevels(t *testing.T) {
	p := DefaultParams()
	spec := Spec{WheelbaseMM: 450, Cells: 3, CapacityMah: 1000, TWR: 2,
		Compute: components.BasicComputeTier, ESCClass: components.LongFlight}
	pts := mustSweep(t, spec, p, 1000, 8000, 250)
	if len(pts) < 20 {
		t.Fatalf("sweep too sparse: %d points", len(pts))
	}
	for _, pt := range pts {
		if pt.TotalWeightG > 1300 && pt.TotalWeightG < 1450 {
			if pt.HoverPowerW < 100 || pt.HoverPowerW > 300 {
				t.Errorf("450 mm @ %.0f g hover power = %.0f W, outside Figure 10b's band", pt.TotalWeightG, pt.HoverPowerW)
			}
		}
		if pt.ManeuverPowerW <= pt.HoverPowerW {
			t.Fatal("maneuvering must draw more than hovering")
		}
	}
}

// TestBestConfigPerWheelbase pins the best-config flight times so regressions
// in the model surface; bands are wide because the paper's absolute
// annotations (23/19/22 min) are not exactly recoverable from its published
// relationships (documented in EXPERIMENTS.md).
func TestBestConfigPerWheelbase(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		wb       float64
		loM, hiM float64
	}{
		{100, 8, 30},  // paper: 23 min
		{450, 15, 42}, // paper: 19 min
		{800, 15, 48}, // paper: 22 min
	}
	for _, c := range cases {
		spec := Spec{WheelbaseMM: c.wb, TWR: 2, Cells: 3, CapacityMah: 1000,
			Compute: components.BasicComputeTier, ESCClass: components.LongFlight}
		best, ok := mustBest(t, spec, p, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 250)
		if !ok {
			t.Fatalf("wb=%v: no feasible config", c.wb)
		}
		ft := best.HoverFlightTimeMin()
		if ft < c.loM || ft > c.hiM {
			t.Errorf("wb=%v best flight time = %.1f min, outside [%v, %v]", c.wb, ft, c.loM, c.hiM)
		}
	}
}

// TestTWRSensitivity: the paper uses TWR=2 to bound compute's contribution;
// higher TWR must shrink the compute share (conclusion §7).
func TestTWRSensitivity(t *testing.T) {
	spec := DefaultSpec()
	spec.Compute = components.AdvancedComputeTier
	p := DefaultParams()
	at := func(twr float64) float64 {
		s := spec
		s.TWR = twr
		d, err := Resolve(s, p)
		if err != nil {
			t.Fatalf("TWR %v: %v", twr, err)
		}
		return d.ComputeSharePct(p.HoverLoad)
	}
	s2, s4 := at(2), at(4)
	if s4 >= s2 {
		t.Errorf("share at TWR 4 (%.1f%%) not below TWR 2 (%.1f%%)", s4, s2)
	}
}

// mustSweep is SweepCapacity on a spec the test expects to validate.
func mustSweep(tb testing.TB, spec Spec, p Params, loMah, hiMah, stepMah float64) []SweepPoint {
	tb.Helper()
	pts, err := SweepCapacity(spec, p, loMah, hiMah, stepMah)
	if err != nil {
		tb.Fatal(err)
	}
	return pts
}

// mustBest is BestConfig on a spec the test expects to validate, with
// ok=false when no configuration is feasible.
func mustBest(tb testing.TB, spec Spec, p Params, cells []int, loMah, hiMah, stepMah float64) (Design, bool) {
	tb.Helper()
	d, err := BestConfig(spec, p, cells, loMah, hiMah, stepMah)
	if errors.Is(err, ErrNoConverge) {
		return d, false
	}
	if err != nil {
		tb.Fatal(err)
	}
	return d, true
}

// mustFrontier is ParetoPayloadFrontier on a spec the test expects to
// validate.
func mustFrontier(tb testing.TB, spec Spec, p Params, payloadsG []float64) []ParetoPoint {
	tb.Helper()
	pts, err := ParetoPayloadFrontier(spec, p, payloadsG)
	if err != nil {
		tb.Fatal(err)
	}
	return pts
}

// TestGridEntryPointsReturnValidationErrors: an invalid spec is reported
// with its validation error by every grid entry point, not as an empty or
// infeasible result, while a valid but infeasible one is not an error to
// the sweep and is ErrNoConverge to the best-config search.
func TestGridEntryPointsReturnValidationErrors(t *testing.T) {
	p := DefaultParams()
	cells := []int{1, 2, 3, 4, 5, 6}
	lidars := []struct {
		Name    string
		WeightG float64
	}{{"Ultra Puck", 925}}
	bad := []struct {
		name string
		edit func(*Spec)
		want error
	}{
		{"wheelbase NaN", func(s *Spec) { s.WheelbaseMM = math.NaN() }, ErrBadWheelbase},
		{"compute -50 g", func(s *Spec) { s.Compute.WeightG = -50 }, ErrBadWeight},
		{"compute -50 W", func(s *Spec) { s.Compute.PowerW = -50 }, ErrBadPower},
		{"compute NaN W", func(s *Spec) { s.Compute.PowerW = math.NaN() }, ErrBadPower},
		{"TWR 1", func(s *Spec) { s.TWR = 1 }, ErrBadTWR},
		{"ESC class 9", func(s *Spec) { s.ESCClass = 9 }, ErrBadESCClass},
	}
	for _, c := range bad {
		spec := DefaultSpec()
		c.edit(&spec)
		if pts, err := SweepCapacity(spec, p, 1000, 8000, 500); !errors.Is(err, c.want) || pts != nil {
			t.Errorf("%s: SweepCapacity = %d points, %v; want %v", c.name, len(pts), err, c.want)
		}
		if _, err := BestConfig(spec, p, cells, 1000, 8000, 500); !errors.Is(err, c.want) {
			t.Errorf("%s: BestConfig error %v, want %v", c.name, err, c.want)
		}
		if pts, err := ParetoPayloadFrontier(spec, p, []float64{0, 500}); !errors.Is(err, c.want) || pts != nil {
			t.Errorf("%s: ParetoPayloadFrontier = %d points, %v; want %v", c.name, len(pts), err, c.want)
		}
		// TWRSweep sets the TWR itself, so only the other fields can fail it.
		if pts, err := TWRSweep(spec, p); c.want != ErrBadTWR && (!errors.Is(err, c.want) || pts != nil) {
			t.Errorf("%s: TWRSweep = %d points, %v; want %v", c.name, len(pts), err, c.want)
		}
		if pts, err := SensorPayloadStudy(spec, p, lidars); !errors.Is(err, c.want) || pts != nil {
			t.Errorf("%s: SensorPayloadStudy = %d points, %v; want %v", c.name, len(pts), err, c.want)
		}
	}
	// The grid's own range and cell counts are validated too.
	if _, err := SweepCapacity(DefaultSpec(), p, 0, 8000, 500); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("SweepCapacity from 0 mAh: error %v, want ErrBadCapacity", err)
	}
	if _, err := BestConfig(DefaultSpec(), p, []int{3, 7}, 1000, 8000, 500); !errors.Is(err, ErrBadCells) {
		t.Errorf("BestConfig over 7 cells: error %v, want ErrBadCells", err)
	}
	if _, err := ParetoPayloadFrontier(DefaultSpec(), p, []float64{0, math.Inf(1)}); !errors.Is(err, ErrBadWeight) {
		t.Errorf("ParetoPayloadFrontier at +Inf g: error %v, want ErrBadWeight", err)
	}
	nanSensor := append(lidars, struct {
		Name    string
		WeightG float64
	}{"NaN", math.NaN()})
	if _, err := SensorPayloadStudy(DefaultSpec(), p, nanSensor); !errors.Is(err, ErrBadWeight) {
		t.Errorf("SensorPayloadStudy with a NaN g sensor: error %v, want ErrBadWeight", err)
	}
	for _, c := range []struct {
		name string
		req  Requirements
		want error
	}{
		{"compute -50 g", Requirements{Compute: components.ComputeTier{PowerW: 3, WeightG: -50}}, ErrBadWeight},
		{"compute NaN W", Requirements{Compute: components.ComputeTier{PowerW: math.NaN(), WeightG: 20}}, ErrBadPower},
		{"payload NaN", Requirements{Compute: components.BasicComputeTier, PayloadG: math.NaN()}, ErrBadWeight},
	} {
		c.req.MinFlightMin = 10
		if _, err := RunProcedure(c.req, p); !errors.Is(err, c.want) {
			t.Errorf("%s: RunProcedure error %v, want %v", c.name, err, c.want)
		}
	}

	// Valid but infeasible: a 100 mm frame cannot lift 20 kg.
	heavy := DefaultSpec()
	heavy.WheelbaseMM, heavy.PayloadG = 100, 20000
	if pts, err := SweepCapacity(heavy, p, 1000, 8000, 500); err != nil || len(pts) != 0 {
		t.Errorf("infeasible sweep = %d points, %v; want none, nil", len(pts), err)
	}
	if _, err := BestConfig(heavy, p, cells, 1000, 8000, 500); !errors.Is(err, ErrNoConverge) {
		t.Errorf("infeasible BestConfig error %v, want ErrNoConverge", err)
	}
	if pts, err := ParetoPayloadFrontier(heavy, p, []float64{20000}); err != nil || len(pts) != 0 {
		t.Errorf("infeasible frontier = %d points, %v; want none, nil", len(pts), err)
	}
	if pts, err := TWRSweep(heavy, p); err != nil || len(pts) != 0 {
		t.Errorf("infeasible TWR sweep = %d points, %v; want none, nil", len(pts), err)
	}
	if pts, err := SensorPayloadStudy(heavy, p, lidars); err != nil || len(pts) != 0 {
		t.Errorf("infeasible sensor study = %d points, %v; want none, nil", len(pts), err)
	}
}
