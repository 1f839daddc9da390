package bench

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dronedse/components"
	"dronedse/core"
	"dronedse/mission"
	"dronedse/platform"
	"dronedse/propulsion"
)

// TestDesignStudiesGolden pins the design-model studies to the float bit:
// every SweepPoint, Best and BestFlight of RunFigure10 at 100, 450 and
// 800 mm, and every point of RunTWRStudy, RunParetoStudy and
// RunSensorStudy, each value as the hex of its IEEE-754 bits (the rendered
// tables round, and TestFigureTablesPoolInvariant compares only that
// text). It also pins every point of RunFigure9, platform.Table5Exact,
// three RunProcedure walks (their reports and one infeasible error text
// too), GainedFlightTimeMin, and the design Resolve gives the reference
// spec at each payload of mission.DefaultDelivery. Regenerate deliberately
// with
//
//	GOLDEN_UPDATE=1 go test ./bench/ -run TestDesignStudiesGolden
func TestDesignStudiesGolden(t *testing.T) {
	const path = "testdata/design_golden.txt"
	var b strings.Builder
	line := func(key string, vs ...float64) {
		b.WriteString(key)
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	// design lists a resolved Design's outputs; its Spec is the input
	// the key already names.
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
		fg, err := RunFigure10(wb)
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
	twr, err := RunTWRStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range twr.Points {
		line(fmt.Sprintf("twr/%.0f", pt.TWR),
			pt.TWR, pt.TotalWeightG, pt.HoverPowerW, pt.ComputeShareHoverPct, pt.FlightMin)
	}
	pareto, err := RunParetoStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pareto.Points {
		line(fmt.Sprintf("pareto/%.0f", pt.Objective),
			append([]float64{pt.Objective, pt.FlightMin}, design(pt.Design)...)...)
	}
	sensors, err := RunSensorStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range sensors.Points {
		line("sensors/"+strings.ReplaceAll(pt.SensorName, " ", "_"),
			pt.SensorWeightG, pt.TotalWeightG, pt.ComputeShareHoverPct, pt.FlightMin)
	}

	fig9 := RunFigure9()
	var wbs []float64
	for wb := range fig9.Lines {
		wbs = append(wbs, wb)
	}
	sortFloats(wbs)
	for _, wb := range wbs {
		for cells := 1; cells <= 6; cells++ {
			for _, pt := range fig9.Lines[wb][cells] {
				line(fmt.Sprintf("fig9/%.0f/%dS/%.0f", wb, cells, pt.BasicWeightG),
					pt.BasicWeightG, pt.CurrentA, pt.Kv)
			}
		}
		line(fmt.Sprintf("fig9/%.0f/min_basic", wb), fig9.MinBasicWeight[wb])
	}
	small, large, err := platform.Table5Exact()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range platform.All() {
		line("table5exact/"+pl.Name, small[pl.Name], large[pl.Name])
	}
	lidar, cam := table4Board(t, "Ultra Puck"), table4Board(t, "RunCam Night Eagle 2")
	for _, c := range []struct {
		key string
		req core.Requirements
	}{
		{"basic", core.Requirements{ExtraSensors: []components.Board{cam},
			Compute: components.AdvancedComputeTier, MinFlightMin: 15}},
		{"bare", core.Requirements{Compute: components.BasicComputeTier, MinFlightMin: 12}},
		{"lidar", core.Requirements{ExtraSensors: []components.Board{lidar},
			Compute: components.BasicComputeTier, MinFlightMin: 12}},
		{"impossible", core.Requirements{Compute: components.AdvancedComputeTier,
			PayloadG: 5000, MinFlightMin: 60}},
	} {
		rec, err := core.RunProcedure(c.req)
		key := "procedure/" + c.key
		if err != nil {
			b.WriteString(key + "/err " + err.Error() + "\n")
		} else {
			line(key, append([]float64{rec.FlightMin, rec.ComputeSharePct,
				rec.GainedByHalvingComputeMin}, design(rec.Design)...)...)
		}
		b.WriteString(key + "/report " + strings.ReplaceAll(rec.Report(), "\n", " | ") + "\n")
	}
	base, err := core.Resolve(core.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range [][2]float64{{1.5, 10}, {20, 85}} {
		for _, load := range []float64{propulsion.HoverLoadFraction, propulsion.ManeuverLoadFraction} {
			gain, err := core.GainedFlightTimeMin(base, swap[0], swap[1], load)
			if err != nil {
				t.Fatal(err)
			}
			line(fmt.Sprintf("gained/%gW/%gg/%g", swap[0], swap[1], load), gain)
		}
	}
	payloads := []float64{0}
	for _, leg := range mission.DefaultDelivery().Legs {
		payloads = append(payloads, leg.PayloadKg*1000)
	}
	for _, g := range payloads {
		s := core.DefaultSpec()
		s.PayloadG = g
		d, err := core.Resolve(s)
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("delivery/%.0f", g), append([]float64{
			d.HoverFlightTimeMin(), d.HoverPowerW(), d.ManeuverPowerW(), d.UsableEnergyWh(),
		}, design(d)...)...)
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

// table4Board returns the Table 4 row with the given name.
func table4Board(t *testing.T, name string) components.Board {
	t.Helper()
	for _, b := range components.Table4() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("Table 4 has no %q", name)
	return components.Board{}
}
