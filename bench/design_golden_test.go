package bench

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dronedse/core"
)

// TestDesignStudiesGolden pins the design-model studies to the float bit:
// every SweepPoint, Best and BestFlight of RunFigure10 at 100, 450 and
// 800 mm, and every point of RunTWRStudy, RunParetoStudy and
// RunSensorStudy, each value as the hex of its IEEE-754 bits (the rendered
// tables round, and TestFigureTablesPoolInvariant compares only that
// text). Regenerate deliberately with
//
//	GOLDEN_UPDATE=1 go test ./bench/ -run TestDesignStudiesGolden
func TestDesignStudiesGolden(t *testing.T) {
	const path = "testdata/design_golden.txt"
	p := core.DefaultParams()
	var b strings.Builder
	line := func(key string, vs ...float64) {
		b.WriteString(key)
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	// design lists a resolved Design's outputs; its Spec and Params are
	// the inputs the key already names.
	design := func(d core.Design) []float64 {
		return []float64{
			float64(d.Spec.Cells), d.Spec.CapacityMah, d.PropInches,
			d.FrameG, d.BatteryG, d.MotorUnitG, d.ESC4xG, d.PropsG, d.WiringG, d.TotalG,
			d.RequiredCurrentA, d.MotorMaxCurrentA, d.MotorKv, float64(d.Iterations),
		}
	}
	sweep := func(key string, pts []core.SweepPoint) {
		for _, pt := range pts {
			line(fmt.Sprintf("%s/%.0f", key, pt.CapacityMah), append([]float64{
				pt.CapacityMah, pt.TotalWeightG, pt.HoverPowerW, pt.ManeuverPowerW,
				pt.HoverFlightMin, pt.ComputeShareHoverPct, pt.ComputeShareManeuverPct,
			}, design(pt.Design)...)...)
		}
	}

	for _, wb := range []float64{100, 450, 800} {
		fg, err := RunFigure10(wb, p)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("fig10/%.0f", wb)
		for _, cells := range []int{1, 3, 6} {
			sweep(fmt.Sprintf("%s/%dS", key, cells), fg.Sweeps[cells])
		}
		sweep(key+"/20W", fg.Shares20W)
		line(key+"/best", design(fg.Best)...)
		line(key+"/best_flight", fg.BestFlight)
	}
	for _, pt := range RunTWRStudy(p).Points {
		line(fmt.Sprintf("twr/%.0f", pt.TWR),
			pt.TWR, pt.TotalWeightG, pt.HoverPowerW, pt.ComputeShareHoverPct, pt.FlightMin)
	}
	pareto, err := RunParetoStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pareto.Points {
		line(fmt.Sprintf("pareto/%.0f", pt.Objective),
			append([]float64{pt.Objective, pt.FlightMin}, design(pt.Design)...)...)
	}
	for _, pt := range RunSensorStudy(p).Points {
		line("sensors/"+strings.ReplaceAll(pt.SensorName, " ", "_"),
			pt.SensorWeightG, pt.TotalWeightG, pt.ComputeShareHoverPct, pt.FlightMin)
	}
	got := b.String()

	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote " + path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
