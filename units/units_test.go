package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCellsToVoltage(t *testing.T) {
	cases := []struct {
		cells int
		want  float64
	}{
		{1, 3.7}, {2, 7.4}, {3, 11.1}, {4, 14.8}, {5, 18.5}, {6, 22.2},
	}
	for _, c := range cases {
		if got := CellsToVoltage(c.cells); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CellsToVoltage(%d) = %v, want %v", c.cells, got, c.want)
		}
	}
}

func TestGramNewtonRoundTrip(t *testing.T) {
	f := func(g float64) bool {
		g = math.Abs(g)
		return math.Abs(GramsToNewtons(g)/Gravity*1000-g) < 1e-9*(1+g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMahWhRoundTrip(t *testing.T) {
	wh := MahToWh(5000, 11.1)
	if math.Abs(wh-55.5) > 1e-9 {
		t.Errorf("MahToWh = %v, want 55.5", wh)
	}
	if got := wh * 1000 / 11.1; math.Abs(got-5000) > 1e-9 {
		t.Errorf("Wh to mAh round trip = %v", got)
	}
}

func TestDiskArea(t *testing.T) {
	// 10-inch propeller
	d := InchToMeter(10)
	if math.Abs(d-0.254) > 1e-12 {
		t.Errorf("InchToMeter(10) = %v", d)
	}
	a := DiskArea(d)
	want := math.Pi * 0.127 * 0.127
	if math.Abs(a-want) > 1e-12 {
		t.Errorf("DiskArea = %v, want %v", a, want)
	}
}

func TestRPMConversions(t *testing.T) {
	if got := RadPerSecToRPM(2 * math.Pi); math.Abs(got-60) > 1e-12 {
		t.Errorf("RadPerSecToRPM(2π) = %v", got)
	}
	f := func(rpm float64) bool {
		rpm = math.Mod(rpm, 1e6) // physically plausible magnitudes
		if math.IsNaN(rpm) {
			rpm = 0
		}
		return math.Abs(RadPerSecToRPM(rpm*2*math.Pi/60)-rpm) < 1e-9*(1+math.Abs(rpm))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleConversions(t *testing.T) {
	if math.Abs(DegToRad(180)-math.Pi) > 1e-12 {
		t.Error("DegToRad wrong")
	}
	if math.Abs(DegToRad(90)-math.Pi/2) > 1e-12 {
		t.Error("DegToRad(90) wrong")
	}
}

func TestCRating(t *testing.T) {
	// 3000 mAh battery at 20C sustains 60 A.
	if got := CRatingMaxCurrent(3000, 20); math.Abs(got-60) > 1e-12 {
		t.Errorf("CRatingMaxCurrent = %v", got)
	}
}

func TestDrainLimit(t *testing.T) {
	if LiPoDrainLimit != 0.85 {
		t.Errorf("LiPoDrainLimit = %v, want paper's 0.85", LiPoDrainLimit)
	}
}
