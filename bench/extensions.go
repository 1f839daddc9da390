package bench

import (
	"fmt"
	"math"

	"dronedse/components"
	"dronedse/control"
	"dronedse/core"
	"dronedse/dataset"
	"dronedse/mathx"
	"dronedse/microarch"
	"dronedse/offload"
	"dronedse/parallelx"
	"dronedse/platform"
	"dronedse/sim"
	"dronedse/slam"
)

// TWRStudy is the §7 released-in-the-repository study: the computation
// footprint at TWR 2-7.
type TWRStudy struct {
	Points []core.TWRPoint
}

// RunTWRStudy sweeps TWR on a 450 mm drone with the 20 W compute tier.
func RunTWRStudy(p core.Params) (TWRStudy, error) {
	spec := core.DefaultSpec()
	spec.CapacityMah = 4000
	spec.Compute = components.AdvancedComputeTier
	pts, err := core.TWRSweep(spec, p)
	return TWRStudy{Points: pts}, err
}

// Table renders the study.
func (s TWRStudy) Table() Table {
	t := Table{
		Title:   "TWR sensitivity (§7): compute footprint shrinks as TWR rises",
		Columns: []string{"TWR", "total weight(g)", "hover power(W)", "20W compute share(%)", "flight(min)"},
		Notes:   []string{"paper: TWR 2 is the minimum flying value and bounds compute's contribution from above"},
	}
	for _, pt := range s.Points {
		t.Rows = append(t.Rows, []string{
			f(pt.TWR), f2(pt.TotalWeightG), f2(pt.HoverPowerW),
			f2(pt.ComputeShareHoverPct), f2(pt.FlightMin),
		})
	}
	return t
}

// SensorStudy is the §3.1 external-sensor squeeze on large drones.
type SensorStudy struct {
	Points []core.SensorPayloadPoint
}

// RunSensorStudy adds each Table 4 LiDAR to an 800 mm drone.
func RunSensorStudy(p core.Params) (SensorStudy, error) {
	spec := core.Spec{WheelbaseMM: 800, Cells: 6, CapacityMah: 8000, TWR: 2,
		Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight}
	var sensors []struct {
		Name    string
		WeightG float64
	}
	for _, b := range components.Table4() {
		if b.Class == components.LiDARUnit {
			sensors = append(sensors, struct {
				Name    string
				WeightG float64
			}{b.Name, b.WeightG})
		}
	}
	pts, err := core.SensorPayloadStudy(spec, p, sensors)
	return SensorStudy{Points: pts}, err
}

// Table renders the study.
func (s SensorStudy) Table() Table {
	t := Table{
		Title:   "External sensors (§3.1): LiDAR weight squeezes the compute power boundary",
		Columns: []string{"sensor", "sensor weight(g)", "drone weight(g)", "20W compute share(%)", "flight(min)"},
	}
	for _, pt := range s.Points {
		t.Rows = append(t.Rows, []string{
			pt.SensorName, f(pt.SensorWeightG), f2(pt.TotalWeightG),
			f2(pt.ComputeShareHoverPct), f2(pt.FlightMin),
		})
	}
	return t
}

// GustStudy measures hover station-keeping under wind gusts at different
// inner-loop rates — the §2.1.3-D INDI citation (500 Hz suffices even under
// powerful gusts) as an experiment.
type GustStudy struct {
	RateHz   []float64
	WorstErr []float64 // meters
}

// RunGustStudy hovers in gusty wind at several inner-loop rates.
func RunGustStudy(seed int64) GustStudy {
	var out GustStudy
	for _, hz := range []float64{25, 50, 100, 200, 500, 1000, 2000} {
		q, err := sim.NewQuad(sim.DefaultConfig())
		if err != nil {
			continue
		}
		q.SetEnvironment(sim.WindyEnvironment(seed, 5, 3))
		rates := control.Rates{PositionHz: math.Min(40, hz), AttitudeHz: math.Min(200, hz), RateHz: hz}
		l := control.NewLoop(q, rates)
		q.Teleport(mathx.V3(0, 0, 10))
		worst := 0.0
		l.Run(control.Targets{Position: mathx.V3(0, 0, 10)}, 20, func(_ float64, s sim.State) {
			if d := s.Pos.Sub(mathx.V3(0, 0, 10)).Norm(); d > worst {
				worst = d
			}
		})
		out.RateHz = append(out.RateHz, hz)
		out.WorstErr = append(out.WorstErr, worst)
	}
	return out
}

// Table renders the study.
func (s GustStudy) Table() Table {
	t := Table{
		Title:   "Gust rejection vs inner-loop rate (5 m/s wind, 3 m/s gusts)",
		Columns: []string{"rate (Hz)", "worst hover error (m)"},
		Notes:   []string{"paper §2.1.3-D: even INDI gust rejection runs at 500 Hz; beyond it physics dominates"},
	}
	for i := range s.RateHz {
		t.Rows = append(t.Rows, []string{f(s.RateHz[i]), f2(s.WorstErr[i])})
	}
	return t
}

// OffloadStudy evaluates remote-compute SLAM over the standard links.
type OffloadStudy struct {
	Reports []offload.Report
}

// RunOffloadStudy measures MH01's ledger against a ground GPU.
func RunOffloadStudy() (OffloadStudy, error) {
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		return OffloadStudy{}, err
	}
	st := slam.RunSequence(seq).Stats
	reports, err := offload.Compare(offload.GroundStationGPU(), offload.SLAMWorkload(), st, 2)
	if err != nil {
		return OffloadStudy{}, err
	}
	return OffloadStudy{Reports: reports}, nil
}

// Table renders the study.
func (s OffloadStudy) Table() Table {
	t := Table{
		Title:   "Offloading SLAM over the radio link (Figure 5's MAVLink offload path)",
		Columns: []string{"link", "throughput ok", "end-to-end (ms)", "deadline ok", "airborne ΔP (W)", "feasible"},
		Notes:   []string{"the 915 MHz telemetry kit cannot carry imagery; WiFi works in range but saves little power vs an FPGA"},
	}
	for _, r := range s.Reports {
		t.Rows = append(t.Rows, []string{
			r.Link.Name, yn(r.ThroughputOK), f2(r.TotalMS), yn(r.DeadlineOK),
			fmt.Sprintf("%+.2f", r.PowerDeltaW), yn(r.Feasible()),
		})
	}
	return t
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ESLAMStudy is the front-end-acceleration ablation.
type ESLAMStudy struct {
	WithGMean    float64
	WithoutGMean float64
}

// RunESLAMStudy compares the FPGA with and without the eSLAM front end
// over the (possibly truncated) suite.
func RunESLAMStudy(seqLimit int) (ESLAMStudy, error) {
	specs := dataset.EuRoCSpecs()
	if seqLimit > 0 && seqLimit < len(specs) {
		specs = specs[:seqLimit]
	}
	base := platform.RPi()
	type pair struct {
		with, without float64
		err           error
	}
	runs := parallelx.Map(specs, func(spec dataset.Spec) pair {
		seq, err := dataset.Generate(spec)
		if err != nil {
			return pair{err: err}
		}
		st := slam.RunSequence(seq).Stats
		return pair{
			with:    platform.Speedup(base, platform.FPGA(), st),
			without: platform.Speedup(base, platform.FPGANoESLAM(), st),
		}
	})
	var with, without []float64
	for _, r := range runs {
		if r.err != nil {
			return ESLAMStudy{}, r.err
		}
		with = append(with, r.with)
		without = append(without, r.without)
	}
	return ESLAMStudy{WithGMean: mathx.GeoMean(with), WithoutGMean: mathx.GeoMean(without)}, nil
}

// Table renders the ablation.
func (s ESLAMStudy) Table() Table {
	return Table{
		Title:   "eSLAM ablation (§5.2): why the FPGA also accelerates feature extraction",
		Columns: []string{"configuration", "GMean speedup over RPi"},
		Rows: [][]string{
			{"BA pipeline + eSLAM front end (paper's design)", f2(s.WithGMean)},
			{"BA pipeline only (front end on ARM)", f2(s.WithoutGMean)},
		},
		Notes: []string{"Amdahl: with BA at 39x, the ~13% front-end share caps the speedup near 7x until eSLAM removes it"},
	}
}

// ParetoStudy is the payload/flight-time frontier tool output.
type ParetoStudy struct {
	Points []core.ParetoPoint
}

// RunParetoStudy sweeps payload on the 450 mm class.
func RunParetoStudy(p core.Params) (ParetoStudy, error) {
	pts, err := core.ParetoPayloadFrontier(core.DefaultSpec(), p, []float64{0, 100, 200, 300, 500, 750, 1000})
	return ParetoStudy{Points: pts}, err
}

// Table renders the frontier.
func (s ParetoStudy) Table() Table {
	t := Table{
		Title:   "Payload vs flight-time Pareto frontier (450 mm, best battery per point)",
		Columns: []string{"payload (g)", "best config", "total weight (g)", "flight (min)"},
	}
	for _, pt := range s.Points {
		t.Rows = append(t.Rows, []string{
			f(pt.Objective),
			fmt.Sprintf("%dS %.0f mAh", pt.Design.Spec.Cells, pt.Design.Spec.CapacityMah),
			f2(pt.Design.TotalG), f2(pt.FlightMin),
		})
	}
	return t
}

// PrefetchStudy is the Figure 1 general-purpose-feature question: what a
// cheap stream prefetcher buys each workload class.
type PrefetchStudy struct {
	Autopilot microarch.PrefetchAblation
	SLAM      microarch.PrefetchAblation
}

// RunPrefetchStudy ablates the prefetcher on both workloads.
func RunPrefetchStudy(seed int64) PrefetchStudy {
	return PrefetchStudy{
		Autopilot: microarch.RunPrefetchAblation(func() microarch.Workload {
			return microarch.NewAutopilotWorkload(seed)
		}, 30000),
		SLAM: microarch.RunPrefetchAblation(func() microarch.Workload {
			return microarch.NewSLAMWorkload(seed + 1)
		}, 30000),
	}
}

// Table renders the ablation.
func (s PrefetchStudy) Table() Table {
	t := Table{
		Title:   "Stream-prefetcher ablation: which drone workload benefits from general-purpose microarchitecture",
		Columns: []string{"workload", "IPC without", "IPC with", "speedup", "prefetches"},
		Notes:   []string{"strided inner-loop state walks stream well; SLAM's pointer chasing does not — Figure 1's \"accelerate tasks similar to other areas?\""},
	}
	row := func(name string, a microarch.PrefetchAblation) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%.3f", a.Without.IPC), fmt.Sprintf("%.3f", a.With.IPC),
			fmt.Sprintf("%.2fx", a.Speedup()), fmt.Sprint(a.PrefetchesIssued),
		})
	}
	row("autopilot", s.Autopilot)
	row("SLAM", s.SLAM)
	return t
}
