package bench

import (
	"math"
	"strings"
	"sync"
	"testing"

	"dronedse/components"
)

// figure15Seed1 is RunFigure15(1), simulated once for the Figure 15 and
// isolation-ladder tests that both read it.
var figure15Seed1 = sync.OnceValue(func() Figure15 { return RunFigure15(1) })

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"three", "4"}},
		Notes:   []string{"a note"},
	}
	s := tb.Render()
	for _, want := range []string{"== demo ==", "long-column", "three", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestRunFigure7(t *testing.T) {
	fg, err := RunFigure7(components.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg.Fits) != 6 {
		t.Fatalf("fits for %d configurations, want 6", len(fg.Fits))
	}
	for cells, v := range fg.Fits {
		if !(math.Abs(v.Slope-v.PaperSlope) <= 0.15*math.Abs(v.PaperSlope)) {
			t.Errorf("%dS slope %v vs paper %v", cells, v.Slope, v.PaperSlope)
		}
	}
	if !strings.Contains(fg.Table().Render(), "6S1P") {
		t.Error("render missing configurations")
	}
}

func TestRunFigure8(t *testing.T) {
	fg, err := RunFigure8(components.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(fg.ESCLong.Slope-fg.ESCLong.PaperSlope) <= 0.2*math.Abs(fg.ESCLong.PaperSlope)) {
		t.Errorf("long-flight ESC slope %v vs paper %v", fg.ESCLong.Slope, fg.ESCLong.PaperSlope)
	}
	if !(math.Abs(fg.FrameHighSlope-fg.PaperFrameSlope) <= 0.2*math.Abs(fg.PaperFrameSlope)) {
		t.Errorf("frame slope %v vs paper %v", fg.FrameHighSlope, fg.PaperFrameSlope)
	}
	fg.Table().Render()
}

func TestRunFigure9(t *testing.T) {
	fg := RunFigure9()
	if len(fg.Lines) != 5 {
		t.Fatalf("wheelbases = %d, want 5", len(fg.Lines))
	}
	// Feasibility and monotonicity already covered by core tests; here
	// check the harness exposes all lines and the min-weight annotations.
	for wb, min := range fg.MinBasicWeight {
		if min <= 0 {
			t.Errorf("wb %v: min feasible weight %v", wb, min)
		}
	}
	if !strings.Contains(fg.Table().Render(), "Figure 9") {
		t.Error("render broken")
	}
}

func TestRunFigure10(t *testing.T) {
	for _, wb := range []float64{100, 450, 800} {
		fg, err := RunFigure10(wb)
		if err != nil {
			t.Fatal(err)
		}
		if len(fg.Sweeps[3]) == 0 {
			t.Fatalf("wb %v: empty 3S sweep", wb)
		}
		if fg.BestFlight <= 0 {
			t.Errorf("wb %v: no best configuration", wb)
		}
		if fg.PaperBestMin == 0 {
			t.Errorf("wb %v: missing paper annotation", wb)
		}
		if wb != 100 && len(fg.Validation) == 0 {
			t.Errorf("wb %v: no commercial validation points", wb)
		}
		fg.Table().Render()
	}
}

func TestRunFigure11(t *testing.T) {
	fg := RunFigure11()
	if len(fg.Drones) != 6 {
		t.Fatalf("drones = %d, want 6", len(fg.Drones))
	}
	if !strings.Contains(fg.Table().Render(), "SKYDIO 2") {
		t.Error("render missing drones")
	}
}

func TestFigure14AndTable4(t *testing.T) {
	if !strings.Contains(Figure14().Render(), "Frame") {
		t.Error("Figure 14 render broken")
	}
	if !strings.Contains(Table4Render().Render(), "Navio2") {
		t.Error("Table 4 render broken")
	}
}

func TestTable2a(t *testing.T) {
	s := Table2aRender().Render()
	for _, want := range []string{"Accelerometer", "GPS", "Barometer"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2a missing %s", want)
		}
	}
}

// TestTable2b checks the measured response times land in the paper's
// time-scale separation: thrust ~tens of ms, attitude ~100 ms, position ~1 s.
func TestTable2b(t *testing.T) {
	tb := RunTable2b()
	if tb.ThrustResponseS < 0.02 || tb.ThrustResponseS > 0.5 {
		t.Errorf("thrust response = %v s, paper band ~50 ms", tb.ThrustResponseS)
	}
	if tb.AttitudeResponseS < 0.04 || tb.AttitudeResponseS > 0.8 {
		t.Errorf("attitude response = %v s, paper band ~100 ms", tb.AttitudeResponseS)
	}
	if tb.PositionResponseS < 0.5 || tb.PositionResponseS > 6 {
		t.Errorf("position response = %v s, paper band ~1 s", tb.PositionResponseS)
	}
	// Separation ordering.
	if !(tb.ThrustResponseS < tb.AttitudeResponseS && tb.AttitudeResponseS < tb.PositionResponseS) {
		t.Errorf("time-scale separation violated: %v / %v / %v",
			tb.ThrustResponseS, tb.AttitudeResponseS, tb.PositionResponseS)
	}
	tb.Table().Render()
}

// TestInnerLoopAblation checks the §2.1.3-D claim end to end: past ~50 Hz,
// more rate buys (almost) nothing.
func TestInnerLoopAblation(t *testing.T) {
	a := RunInnerLoopAblation()
	byRate := map[float64]float64{}
	for i, hz := range a.RateHz {
		byRate[hz] = a.ResponseS[i]
	}
	if byRate[1000] < 0 || byRate[2000] < 0 || byRate[200] < 0 {
		t.Fatal("reference rates failed to settle")
	}
	if d := byRate[2000] - byRate[1000]; d > 0.15*byRate[1000] || d < -0.15*byRate[1000] {
		t.Errorf("1->2 kHz changed response by %v s: should be physics-limited", d)
	}
	if byRate[50] > 0 && byRate[50] > byRate[1000]*1.35 {
		t.Errorf("50 Hz response %v vs 1 kHz %v: paper says 50-500 Hz suffices", byRate[50], byRate[1000])
	}
	// The very low end must be clearly worse or unstable.
	if byRate[6] > 0 && byRate[6] < byRate[1000]*1.5 {
		t.Errorf("6 Hz loop response %v suspiciously good", byRate[6])
	}
	a.Table().Render()
}

// TestFigure16 validates both traces against the paper's measurements.
func TestFigure16(t *testing.T) {
	fg, err := RunFigure16(3)
	if err != nil {
		t.Fatal(err)
	}
	if !fg.FlightOK {
		t.Fatal("mission did not complete")
	}
	means := map[string]float64{}
	for _, ph := range fg.RPiPhases {
		means[ph.Name] = fg.RPiTrace.MeanPower(ph.FromS, ph.ToS)
	}
	if !(math.Abs(means["autopilot"]-3.39) <= 0.05) {
		t.Errorf("autopilot phase = %v W, paper 3.39", means["autopilot"])
	}
	if !(math.Abs(means["autopilot+SLAM(idle)"]-4.05) <= 0.05) {
		t.Errorf("SLAM-idle phase = %v W, paper 4.05", means["autopilot+SLAM(idle)"])
	}
	flying := means["autopilot+SLAM(flying)"]
	if flying < 4.3 || flying > 4.9 {
		t.Errorf("SLAM-flying phase = %v W, paper avg 4.56", flying)
	}
	if pk := fg.RPiTrace.PeakPower(140, 260); pk < 4.8 || pk > 5.3 {
		t.Errorf("SLAM-flying peak = %v W, paper ~5", pk)
	}
	// Whole drone: ~130 W scale.
	if fg.DroneAvgW < 85 || fg.DroneAvgW > 170 {
		t.Errorf("whole-drone average = %.0f W, paper 130 W", fg.DroneAvgW)
	}
	if fg.DronePeakW <= fg.DroneAvgW {
		t.Error("maneuvering peaks must exceed the average")
	}
	fg.Table().Render()
}

// TestFigure15Bench checks the harness-level interference numbers.
func TestFigure15Bench(t *testing.T) {
	fg := figure15Seed1()
	if r := fg.TLBRatio(); r < 3 || r > 6.5 {
		t.Errorf("TLB ratio = %v, paper 4.5", r)
	}
	if d := fg.IPCDrop(); d < 1.4 || d > 2.2 {
		t.Errorf("IPC drop = %v, paper 1.7", d)
	}
	fg.Table().Render()
}

// TestFigure17AndTable5 runs the offload study on a truncated suite (the
// full suite runs under the platform tests and the repo-root benches).
func TestFigure17AndTable5(t *testing.T) {
	fg, err := RunFigure17(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg.Results) != 3 {
		t.Fatalf("results = %d", len(fg.Results))
	}
	if fg.GMeanTX2 < 1.8 || fg.GMeanTX2 > 2.6 {
		t.Errorf("TX2 GMean = %v, paper 2.16", fg.GMeanTX2)
	}
	if fg.GMeanFPGA < 26 || fg.GMeanFPGA > 36 {
		t.Errorf("FPGA GMean = %v, paper 30.7", fg.GMeanFPGA)
	}
	for _, r := range fg.Results {
		if r.ATE > 0.25 {
			t.Errorf("%s: ATE %v — SLAM key metrics not confirmed", r.Name, r.ATE)
		}
	}
	t5, err := RunTable5(fg.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 4 {
		t.Fatalf("Table 5 rows = %d", len(t5.Rows))
	}
	t5.Table().Render()
	fg.Table().Render()
}
