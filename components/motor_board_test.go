package components

import (
	"math"
	"testing"
)

func TestMotorWeightModelAnchors(t *testing.T) {
	// §3.1: ~5 g motors on 100 mm drones (≈100 g max thrust per motor)
	// up to ~100 g motors on 1000 mm drones (≈1500 g max thrust).
	small := MotorWeightModel(100)
	if small < 3 || small > 8 {
		t.Errorf("small motor weight = %v g, want ~5 g", small)
	}
	large := MotorWeightModel(1500)
	if large < 70 || large > 130 {
		t.Errorf("large motor weight = %v g, want ~100 g", large)
	}
	if MotorWeightModel(0) != 0 {
		t.Error("zero thrust should weigh nothing")
	}
	if MotorWeightModel(10) < 2 {
		t.Error("floor of 2 g not applied")
	}
}

func TestPropellerWeight(t *testing.T) {
	if PropellerWeightG(1) < 0.5 {
		t.Error("floor not applied")
	}
	if PropellerWeightG(10) <= PropellerWeightG(5) {
		t.Error("prop weight not increasing")
	}
	w20 := PropellerWeightG(20)
	if w20 < 15 || w20 > 60 {
		t.Errorf("20\" prop weight = %v g, implausible", w20)
	}
}

func TestTable4(t *testing.T) {
	rows := Table4()
	if len(rows) != 15 {
		t.Fatalf("Table 4 rows = %d, want 15", len(rows))
	}
	tx2 := false
	for _, r := range rows {
		if r.Name == "Nvidia Jetson TX2" {
			tx2 = true
			if r.PowerW != 10 || r.WeightG != 85 {
				t.Errorf("TX2 = %+v, want 10 W / 85 g", r)
			}
		}
		if r.Class == LiDARUnit && !r.SelfPowered {
			t.Errorf("LiDAR %s must be self-powered per §3.1", r.Name)
		}
		if r.WeightG <= 0 || r.PowerW <= 0 {
			t.Errorf("non-physical row: %+v", r)
		}
	}
	if !tx2 {
		t.Error("TX2 missing")
	}
}

func TestComputeTiers(t *testing.T) {
	if BasicComputeTier.PowerW != 3 || AdvancedComputeTier.PowerW != 20 {
		t.Error("compute tiers must be the paper's 3 W and 20 W levels")
	}
}

func TestCommercialDrones(t *testing.T) {
	drones := CommercialDrones()
	if len(drones) < 9 {
		t.Fatalf("validation set too small: %d", len(drones))
	}
	for _, d := range drones {
		hp := d.HoverPowerW()
		if hp <= 0 {
			t.Fatalf("%s: hover power %v", d.Name, hp)
		}
		if d.ManeuverPowerW() <= hp {
			t.Errorf("%s: maneuvering should draw more than hovering", d.Name)
		}
		base, heavy := d.BaseComputeSharePct(), d.HeavyComputeSharePct()
		if heavy <= base {
			t.Errorf("%s: heavy compute share %v <= base %v", d.Name, heavy, base)
		}
	}
}

// TestFigure11Shares checks Figure 11's claims: hovering compute is 2-7% of
// total power and heavy computation reaches 10-20% on small drones.
func TestFigure11Shares(t *testing.T) {
	var anyHeavyAbove10 bool
	for _, d := range Figure11Drones() {
		base := d.BaseComputeSharePct()
		if base < 1 || base > 9 {
			t.Errorf("%s: base compute share %.1f%%, want the paper's 2-7%% band (±2)", d.Name, base)
		}
		heavy := d.HeavyComputeSharePct()
		if heavy < 5 || heavy > 25 {
			t.Errorf("%s: heavy compute share %.1f%%, want ~10-20%% band (±5)", d.Name, heavy)
		}
		if heavy >= 10 {
			anyHeavyAbove10 = true
		}
	}
	if !anyHeavyAbove10 {
		t.Error("no drone reaches the 10-20% heavy-compute band")
	}
}

func TestOurDroneBreakdown(t *testing.T) {
	items := OurDroneBreakdown()
	if len(items) != 13 {
		t.Fatalf("breakdown items = %d, want Figure 14's 13", len(items))
	}
	if items[0].Name != "Frame" || items[0].WeightG != 272 {
		t.Errorf("first item = %+v, want Frame 272 g", items[0])
	}
	total := OurDroneTotalWeightG()
	if math.Abs(total-1071) > 1 {
		t.Errorf("total = %v g, want 1071 g", total)
	}
	// Frame+battery+motors+ESC dominate (paper: 25+23+21+10 = 79%).
	top4 := items[0].WeightG + items[1].WeightG + items[2].WeightG + items[3].WeightG
	if share := top4 / total; share < 0.75 || share > 0.85 {
		t.Errorf("top-4 share = %v, want ~0.79", share)
	}
}
