package components

import (
	"math"
	"testing"
)

func TestGenerateESCCatalog(t *testing.T) {
	cat := GenerateESCCatalog(DefaultSeed)
	if len(cat) != 40 {
		t.Fatalf("catalog size = %d, want the paper's 40", len(cat))
	}
	classes := make(map[ESCClass]int)
	for _, e := range cat {
		classes[e.Class]++
		if e.MaxCurrentA < 10 || e.MaxCurrentA > 90 {
			t.Errorf("current outside survey span: %+v", e)
		}
		if e.Weight4xG < 8 {
			t.Errorf("weight below floor: %+v", e)
		}
		if e.SwitchingKHz < 60 || e.SwitchingKHz > 600 {
			t.Errorf("switching frequency outside the paper's 60-600 kHz: %+v", e)
		}
	}
	if classes[LongFlight] != 20 || classes[ShortFlight] != 20 {
		t.Errorf("class split = %v, want 20/20", classes)
	}
}

// TestFitESCCatalogReproducesFigure8a checks the two-group regression lands
// on the published lines (long: 4.9678x-15.757, short: 1.2269x+11.816).
func TestFitESCCatalogReproducesFigure8a(t *testing.T) {
	fits, err := FitESCCatalog(GenerateESCCatalog(DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	for class, want := range Figure8aLines {
		got := fits[class]
		if !(math.Abs(got.Slope-want.Slope) <= 0.2*math.Abs(want.Slope)) {
			t.Errorf("%v slope = %v, paper %v", class, got.Slope, want.Slope)
		}
	}
	// Long-flight ESCs must be far heavier per amp than racing ESCs.
	if fits[LongFlight].Slope < 2.5*fits[ShortFlight].Slope {
		t.Errorf("long/short slope ratio too small: %v vs %v",
			fits[LongFlight].Slope, fits[ShortFlight].Slope)
	}
}

func TestESCWeightModelFloor(t *testing.T) {
	if w := ESCWeightModel(LongFlight, 1); w != 8 {
		t.Errorf("tiny ESC weight = %v, want 8 g floor", w)
	}
	if w := ESCWeightModel(LongFlight, 40); math.Abs(w-(4.9678*40-15.757)) > 1e-9 {
		t.Errorf("40 A long-flight weight = %v", w)
	}
}

func TestGenerateFrameCatalog(t *testing.T) {
	cat := GenerateFrameCatalog(DefaultSeed)
	if len(cat) != 25 {
		t.Fatalf("catalog size = %d, want the paper's 25", len(cat))
	}
	found := 0
	for _, f := range cat {
		if f.WeightG <= 0 || f.WheelbaseMM <= 0 {
			t.Fatalf("non-physical frame: %+v", f)
		}
		switch f.Name {
		case "Crazepony F450 (our drone)", "Tarot T960", "220 Martian II":
			found++
		}
	}
	if found != 3 {
		t.Errorf("named paper frames missing (found %d of 3)", found)
	}
}

// TestFitFrameCatalogReproducesFigure8b checks the >200 mm regression lands
// on y = 1.2767x - 167.6.
func TestFitFrameCatalogReproducesFigure8b(t *testing.T) {
	pw := FitFrameCatalog(GenerateFrameCatalog(DefaultSeed))
	if !(math.Abs(pw.High.Slope-Figure8bSlope) <= 0.2*math.Abs(Figure8bSlope)) {
		t.Errorf("large-frame slope = %v, paper %v", pw.High.Slope, Figure8bSlope)
	}
	// Small-frame regime stays in the paper's 50<y<200 band at e.g. 150mm.
	if w := pw.Low.Slope*150 + pw.Low.Intercept; w < 30 || w > 220 {
		t.Errorf("150 mm frame weight = %v, outside small-frame band", w)
	}
}

func TestFrameWeightModelContinuity(t *testing.T) {
	below := FrameWeightModel(Figure8bBreakMM - 1e-9)
	above := FrameWeightModel(Figure8bBreakMM)
	if math.Abs(below-above) > 1 {
		t.Errorf("discontinuity at break: %v vs %v", below, above)
	}
	if FrameWeightModel(450) <= FrameWeightModel(200) {
		t.Error("weight not increasing with wheelbase")
	}
}

func TestMaxPropellerInches(t *testing.T) {
	cases := []struct{ wb, want float64 }{
		{50, 1}, {100, 2}, {200, 5}, {450, 10}, {800, 20},
	}
	for _, c := range cases {
		if got := MaxPropellerInches(c.wb); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("MaxPropellerInches(%v) = %v, want %v (Figure 9 pairing)", c.wb, got, c.want)
		}
	}
	// interpolation is monotone
	prev := MaxPropellerInches(50)
	for wb := 60.0; wb <= 1000; wb += 10 {
		cur := MaxPropellerInches(wb)
		if cur < prev {
			t.Fatalf("prop size decreasing at %v mm", wb)
		}
		prev = cur
	}
}
