package bench

import (
	"strings"
	"testing"
)

func TestRunTWRStudy(t *testing.T) {
	s, err := RunTWRStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) < 4 {
		t.Fatalf("TWR study produced %d points", len(s.Points))
	}
	if s.Points[0].TWR != 2 {
		t.Error("study must anchor at TWR 2")
	}
	if !strings.Contains(s.Table().Render(), "TWR") {
		t.Error("render broken")
	}
}

func TestRunSensorStudy(t *testing.T) {
	s, err := RunSensorStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 { // none + 3 LiDARs
		t.Fatalf("sensor study rows = %d, want 4", len(s.Points))
	}
	if s.Points[0].SensorName != "(none)" {
		t.Error("baseline row missing")
	}
	// The heaviest LiDAR squeezes hardest.
	last := s.Points[0].ComputeShareHoverPct
	if s.Points[1].ComputeShareHoverPct >= last {
		t.Error("LiDAR did not squeeze the compute share")
	}
	s.Table().Render()
}

func TestRunGustStudy(t *testing.T) {
	s := RunGustStudy(3)
	if len(s.RateHz) < 5 {
		t.Fatalf("gust study produced %d rates", len(s.RateHz))
	}
	byRate := map[float64]float64{}
	for i, hz := range s.RateHz {
		byRate[hz] = s.WorstErr[i]
	}
	// Everything from 50 Hz up holds within ~2.5 m of the set point in a
	// 5 m/s wind; extra rate beyond 500 Hz buys under half a meter.
	for _, hz := range []float64{50, 200, 1000} {
		if byRate[hz] > 2.5 {
			t.Errorf("%v Hz worst error %.2f m", hz, byRate[hz])
		}
	}
	if d := byRate[500] - byRate[2000]; d > 0.5 || d < -0.5 {
		t.Errorf("500 Hz vs 2 kHz differ by %.2f m; gusts should be physics-limited past 500 Hz", d)
	}
	s.Table().Render()
}

func TestRunOffloadStudy(t *testing.T) {
	s, err := RunOffloadStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Reports) != 3 {
		t.Fatalf("offload rows = %d, want 3 links", len(s.Reports))
	}
	feasible := 0
	for _, r := range s.Reports {
		if r.Feasible() {
			feasible++
		}
	}
	if feasible == 0 {
		t.Error("no feasible offload link; WiFi should work")
	}
	s.Table().Render()
}

func TestRunESLAMStudy(t *testing.T) {
	s, err := RunESLAMStudy(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.WithoutGMean >= s.WithGMean {
		t.Errorf("ablation backwards: %.1f vs %.1f", s.WithoutGMean, s.WithGMean)
	}
	if s.WithoutGMean < 4 || s.WithoutGMean > 10 {
		t.Errorf("no-eSLAM GMean = %.1f, expected the ~7x Amdahl cap", s.WithoutGMean)
	}
	s.Table().Render()
}

func TestRunParetoStudy(t *testing.T) {
	s, err := RunParetoStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) < 4 {
		t.Fatalf("frontier has %d points", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].FlightMin >= s.Points[i-1].FlightMin {
			t.Error("frontier not strictly worsening with payload")
		}
	}
	s.Table().Render()
}

func TestRunIsolationStudyTable(t *testing.T) {
	fg := figure15Seed1()
	r := fg.Result
	if !(r.Autopilot.IPC >= r.DedicatedCore.IPC && r.DedicatedCore.IPC > r.AutopilotWithSLAM.IPC) {
		t.Errorf("isolation ladder violated: %.3f / %.3f / %.3f",
			r.Autopilot.IPC, r.DedicatedCore.IPC, r.AutopilotWithSLAM.IPC)
	}
	if !strings.Contains(fg.IsolationTable().Render(), "dedicated unit") {
		t.Error("render broken")
	}
}

func TestRunPrefetchStudyTable(t *testing.T) {
	s := RunPrefetchStudy(1)
	if s.Autopilot.Speedup() <= s.SLAM.Speedup() {
		t.Error("prefetch asymmetry inverted")
	}
	if !strings.Contains(s.Table().Render(), "prefetches") {
		t.Error("render broken")
	}
}
