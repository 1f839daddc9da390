package components

import (
	"math"
	"testing"

	"dronedse/units"
)

func TestGenerateBatteryCatalogSize(t *testing.T) {
	cat := GenerateBatteryCatalog(DefaultSeed)
	if len(cat) != 250 {
		t.Fatalf("catalog size = %d, want the paper's 250", len(cat))
	}
	perCells := make(map[int]int)
	for _, b := range cat {
		perCells[b.Cells]++
		if b.CapacityMah <= 0 || b.WeightG <= 0 {
			t.Fatalf("non-physical battery: %+v", b)
		}
		if b.Cells < 1 || b.Cells > 6 {
			t.Fatalf("cell count out of range: %+v", b)
		}
		if b.DischargeC < 20 || b.DischargeC > 120 {
			t.Fatalf("C rating out of survey range: %+v", b)
		}
	}
	for c := 1; c <= 6; c++ {
		if perCells[c] < 30 {
			t.Errorf("only %d batteries with %dS; want a balanced survey", perCells[c], c)
		}
	}
}

func TestBatteryCatalogDeterministic(t *testing.T) {
	a := GenerateBatteryCatalog(7)
	b := GenerateBatteryCatalog(7)
	if len(a) != len(b) {
		t.Fatal("catalog size differs between runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFitBatteryCatalogReproducesFigure7 is the Figure 7 reproduction: the
// per-configuration regressions over the synthesized survey must land on the
// paper's published lines.
func TestFitBatteryCatalogReproducesFigure7(t *testing.T) {
	cat := GenerateBatteryCatalog(DefaultSeed)
	fits, err := FitBatteryCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	for cells, want := range Figure7Lines {
		got, ok := fits[cells]
		if !ok {
			t.Fatalf("no fit for %dS", cells)
		}
		if !(math.Abs(got.Slope-want.Slope) <= 0.15*math.Abs(want.Slope)) {
			t.Errorf("%dS slope = %v, paper %v", cells, got.Slope, want.Slope)
		}
		if got.R2 < 0.8 {
			t.Errorf("%dS fit R2 = %v; survey should be strongly linear", cells, got.R2)
		}
	}
}

func TestBatteryWeightModelMonotonic(t *testing.T) {
	for cells := 1; cells <= 6; cells++ {
		prev := BatteryWeightModel(cells, 500)
		for cap := 1000.0; cap <= 10000; cap += 500 {
			w := BatteryWeightModel(cells, cap)
			if w <= prev {
				t.Fatalf("%dS weight not increasing at %v mAh", cells, cap)
			}
			prev = w
		}
	}
	// clamping
	if BatteryWeightModel(0, 1000) != BatteryWeightModel(1, 1000) {
		t.Error("cells<1 not clamped")
	}
	if BatteryWeightModel(9, 1000) != BatteryWeightModel(6, 1000) {
		t.Error("cells>6 not clamped")
	}
}

// TestBatteryDerivedQuantities reads a Table 3 pack's voltage, energy and
// continuous-current ceiling off its catalog fields.
func TestBatteryDerivedQuantities(t *testing.T) {
	b := Battery{Cells: 3, CapacityMah: 3000, DischargeC: 20}
	v := units.CellsToVoltage(b.Cells)
	if math.Abs(v-11.1) > 1e-9 {
		t.Errorf("voltage = %v", v)
	}
	if e := units.MahToWh(b.CapacityMah, v); math.Abs(e-33.3) > 1e-9 {
		t.Errorf("energy = %v Wh", e)
	}
	if i := units.CRatingMaxCurrent(b.CapacityMah, b.DischargeC); math.Abs(i-60) > 1e-9 {
		t.Errorf("continuous current = %v A", i)
	}
}
