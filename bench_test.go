package dronedse

// Repo-root benchmarks: one per table and figure in the paper's evaluation
// (see DESIGN.md §3 for the index). Each benchmark regenerates its
// experiment through the dronedse/bench harness and reports the headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation in one command. Correctness bands are
// asserted by the package test suites; benchmarks here measure the cost of
// regeneration and surface the reproduced numbers.

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/bench"
	"dronedse/components"
	"dronedse/core"
	"dronedse/dataset"
	"dronedse/parallelx"
	"dronedse/slam"
)

func BenchmarkTable2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2aRender()
	}
}

func BenchmarkTable2b(b *testing.B) {
	var tb bench.Table2b
	for i := 0; i < b.N; i++ {
		tb = bench.RunTable2b()
	}
	b.ReportMetric(tb.ThrustResponseS*1000, "thrust-ms")
	b.ReportMetric(tb.AttitudeResponseS*1000, "attitude-ms")
	b.ReportMetric(tb.PositionResponseS, "position-s")
}

func BenchmarkInnerLoopRate(b *testing.B) {
	var a bench.InnerLoopAblation
	for i := 0; i < b.N; i++ {
		a = bench.RunInnerLoopAblation()
	}
	// Saturation check value: response at 1 kHz.
	for i, hz := range a.RateHz {
		if hz == 1000 {
			b.ReportMetric(a.ResponseS[i], "resp-1kHz-s")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	var fg bench.Figure7
	var err error
	for i := 0; i < b.N; i++ {
		fg, err = bench.RunFigure7(components.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fg.Fits[3].Slope, "slope-3S-g/mAh")
}

func BenchmarkFig8a(b *testing.B) {
	var fg bench.Figure8
	var err error
	for i := 0; i < b.N; i++ {
		fg, err = bench.RunFigure8(components.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fg.ESCLong.Slope, "esc-long-slope")
}

func BenchmarkFig8b(b *testing.B) {
	var fg bench.Figure8
	var err error
	for i := 0; i < b.N; i++ {
		fg, err = bench.RunFigure8(components.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fg.FrameHighSlope, "frame-slope")
}

func BenchmarkFig9(b *testing.B) {
	var fg bench.Figure9
	for i := 0; i < b.N; i++ {
		fg = bench.RunFigure9()
	}
	pts := fg.Lines[450][3]
	if len(pts) > 0 {
		b.ReportMetric(pts[len(pts)-1].CurrentA, "I-450mm-3S-A")
	}
}

// BenchmarkFig10 regenerates Figure 10's three frame classes at each pool
// size; it is one of BENCH_core.json's rows (make bench-json).
func BenchmarkFig10(b *testing.B) {
	atEachPool(b, func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			for _, wb := range []float64{100, 450, 800} {
				fg, err := bench.RunFigure10(wb)
				if err != nil {
					b.Fatal(err)
				}
				if wb == 450 {
					best = fg.BestFlight
				}
			}
		}
		b.ReportMetric(best, "best-450mm-min")
	})
}

func BenchmarkFig11(b *testing.B) {
	var fg bench.Figure11
	for i := 0; i < b.N; i++ {
		fg = bench.RunFigure11()
	}
	b.ReportMetric(fg.Drones[0].HeavyComputeSharePct(), "mambo-heavy-pct")
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure14()
	}
	b.ReportMetric(components.OurDroneTotalWeightG(), "total-g")
}

func BenchmarkFig15(b *testing.B) {
	var fg bench.Figure15
	for i := 0; i < b.N; i++ {
		fg = bench.RunFigure15(1)
	}
	b.ReportMetric(fg.TLBRatio(), "tlb-ratio")
	b.ReportMetric(fg.IPCDrop(), "ipc-drop")
	b.ReportMetric(fg.Result.Autopilot.IPC/fg.Result.DedicatedCore.IPC, "dedicated-core-ipc-drop")
}

func BenchmarkFig16(b *testing.B) {
	var fg bench.Figure16
	var err error
	for i := 0; i < b.N; i++ {
		fg, err = bench.RunFigure16(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fg.DroneAvgW, "drone-avg-W")
}

func BenchmarkFig17(b *testing.B) {
	var fg bench.Figure17
	var err error
	for i := 0; i < b.N; i++ {
		fg, err = bench.RunFigure17(0) // full 11-sequence suite
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fg.GMeanTX2, "tx2-gmean-x")
	b.ReportMetric(fg.GMeanFPGA, "fpga-gmean-x")
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4Render()
	}
}

func BenchmarkTable5(b *testing.B) {
	fg, err := bench.RunFigure17(3)
	if err != nil {
		b.Fatal(err)
	}
	stats := fg.Stats()
	var t5 bench.Table5Bench
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5, err = bench.RunTable5(stats)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range t5.Rows {
		if r.Platform == "FPGA" {
			b.ReportMetric(r.GainedSmallMin, "fpga-gain-small-min")
		}
	}
}

// --- Extension studies ---

func BenchmarkTWRSweep(b *testing.B) {
	var s bench.TWRStudy
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = bench.RunTWRStudy(); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.Points) > 0 {
		b.ReportMetric(s.Points[0].ComputeShareHoverPct, "share-twr2-pct")
	}
}

func BenchmarkSensorPayload(b *testing.B) {
	var s bench.SensorStudy
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = bench.RunSensorStudy(); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.Points) > 1 {
		b.ReportMetric(s.Points[len(s.Points)-1].ComputeShareHoverPct, "share-heaviest-pct")
	}
}

func BenchmarkGustRejection(b *testing.B) {
	var s bench.GustStudy
	for i := 0; i < b.N; i++ {
		s = bench.RunGustStudy(3)
	}
	for i, hz := range s.RateHz {
		if hz == 500 {
			b.ReportMetric(s.WorstErr[i], "err-500Hz-m")
		}
	}
}

func BenchmarkOffload(b *testing.B) {
	var s bench.OffloadStudy
	var err error
	for i := 0; i < b.N; i++ {
		s, err = bench.RunOffloadStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range s.Reports {
		if r.Link.Name == "5GHz WiFi" {
			b.ReportMetric(r.TotalMS, "wifi-e2e-ms")
		}
	}
}

func BenchmarkESLAMAblation(b *testing.B) {
	var s bench.ESLAMStudy
	var err error
	for i := 0; i < b.N; i++ {
		s, err = bench.RunESLAMStudy(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.WithoutGMean, "no-eslam-gmean-x")
}

func BenchmarkParetoFrontier(b *testing.B) {
	var s bench.ParetoStudy
	for i := 0; i < b.N; i++ {
		var err error
		if s, err = bench.RunParetoStudy(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s.Points)), "frontier-points")
}

// BenchmarkSLAMPipeline measures the real Go-side throughput of the SLAM
// pipeline on one sequence (native wall time, distinct from the modeled
// platform retiming).
func BenchmarkSLAMPipeline(b *testing.B) {
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := slam.RunSequence(seq)
		if res.ATE > 0.25 {
			b.Fatalf("tracking failed: ATE %v", res.ATE)
		}
	}
}

func BenchmarkPrefetchAblation(b *testing.B) {
	var s bench.PrefetchStudy
	for i := 0; i < b.N; i++ {
		s = bench.RunPrefetchStudy(1)
	}
	b.ReportMetric(s.Autopilot.Speedup(), "autopilot-speedup-x")
	b.ReportMetric(s.SLAM.Speedup(), "slam-speedup-x")
}

func BenchmarkFigure12Procedure(b *testing.B) {
	var rec core.Recommendation
	var err error
	for i := 0; i < b.N; i++ {
		rec, err = core.RunProcedure(core.Requirements{
			Compute:      components.AdvancedComputeTier,
			MinFlightMin: 15,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rec.FlightMin, "flight-min")
	b.ReportMetric(rec.ComputeSharePct, "compute-share-pct")
}

// BenchmarkSLAMSuite times the Figure 17 run over its first two sequences
// at each pool size, the hot path of `figures -fig 17`; it is one of
// BENCH_core.json's rows (make bench-json).
func BenchmarkSLAMSuite(b *testing.B) {
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunFigure17(2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// atEachPool runs body as one sub-benchmark per pool size of the perf
// trajectory: 1, 2, and NumCPU when larger.
func atEachPool(b *testing.B, body func(b *testing.B)) {
	pools := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		pools = append(pools, n)
	}
	for _, pool := range pools {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			defer parallelx.SetPoolSize(parallelx.SetPoolSize(pool))
			body(b)
		})
	}
}
