package bench

import (
	"fmt"

	"dronedse/dataset"
	"dronedse/mathx"
	"dronedse/microarch"
	"dronedse/parallelx"
	"dronedse/platform"
	"dronedse/slam"
)

// Figure15 regenerates the co-residency interference study and the §2.2
// isolation ladder, which shares its simulations.
type Figure15 struct {
	Result microarch.Figure15Result
}

// RunFigure15 executes the workload configurations of Figure 15 and the
// isolation ladder.
func RunFigure15(seed int64) Figure15 {
	return Figure15{Result: microarch.RunFigure15(seed, 30000)}
}

// TLBRatio is the co-resident/solo autopilot TLB-miss ratio (paper: 4.5x).
func (fg Figure15) TLBRatio() float64 {
	if fg.Result.Autopilot.TLBMisses == 0 {
		return 0
	}
	return float64(fg.Result.AutopilotWithSLAM.TLBMisses) / float64(fg.Result.Autopilot.TLBMisses)
}

// IPCDrop is the autopilot IPC degradation factor (paper: 1.7x).
func (fg Figure15) IPCDrop() float64 {
	if fg.Result.AutopilotWithSLAM.IPC == 0 {
		return 0
	}
	return fg.Result.Autopilot.IPC / fg.Result.AutopilotWithSLAM.IPC
}

// Table renders the figure.
func (fg Figure15) Table() Table {
	t := Table{
		Title:   "Figure 15: autopilot vs SLAM vs co-resident on RPi (trace-driven uarch sim)",
		Columns: []string{"workload", "instructions", "IPC", "LLC miss rate", "branch miss rate", "TLB misses", "TLB miss rate"},
	}
	row := func(name string, m microarch.Metrics) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(m.Instructions), fmt.Sprintf("%.3f", m.IPC), fmt.Sprintf("%.3f", m.LLCMissRate),
			fmt.Sprintf("%.4f", m.BranchMissRate), fmt.Sprint(m.TLBMisses), fmt.Sprintf("%.4f", m.TLBMissRate),
		})
	}
	row("autopilot", fg.Result.Autopilot)
	row("SLAM", fg.Result.SLAM)
	row("autopilot w/ SLAM", fg.Result.AutopilotWithSLAM)
	t.Notes = append(t.Notes,
		fmt.Sprintf("TLB miss ratio %.2fx (paper 4.5x); autopilot IPC drop %.2fx (paper 1.7x)",
			fg.TLBRatio(), fg.IPCDrop()))
	return t
}

// IsolationTable renders the §2.2 deployment-option ladder: dedicated unit,
// dedicated core (shared LLC), shared core.
func (fg Figure15) IsolationTable() Table {
	t := Table{
		Title:   "Isolation ladder (§2.2): why the inner loop gets its own unit",
		Columns: []string{"deployment", "autopilot IPC", "TLB misses", "LLC miss rate", "branch miss rate"},
		Notes: []string{
			"a dedicated core removes TLB/branch pollution but the shared LLC still throttles — hence \"not co-located on the same core or even the same unit\"",
		},
	}
	row := func(name string, m microarch.Metrics) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%.3f", m.IPC), fmt.Sprint(m.TLBMisses),
			fmt.Sprintf("%.3f", m.LLCMissRate), fmt.Sprintf("%.4f", m.BranchMissRate),
		})
	}
	row("dedicated unit (solo)", fg.Result.Autopilot)
	row("dedicated core, shared LLC", fg.Result.DedicatedCore)
	row("shared core (co-resident)", fg.Result.AutopilotWithSLAM)
	return t
}

// Figure17 regenerates the SLAM-offload speedups across the 11 sequences.
type Figure17 struct {
	Results []slam.Result
	// Bars[sequence][platform] is the stacked-speedup breakdown.
	TX2Bars  []platform.SpeedupBreakdown
	FPGABars []platform.SpeedupBreakdown
	// ATEs per sequence confirm SLAM key metrics held while retiming.
	GMeanTX2  float64
	GMeanFPGA float64
}

// RunFigure17 runs SLAM over the synthetic EuRoC suite and retimes it on
// the platform models. seqLimit>0 truncates the suite (for -short runs).
// Sequences are independent, so they fan out across the parallelx pool; the
// results are assembled in suite order, byte-identical to the serial run.
func RunFigure17(seqLimit int) (Figure17, error) {
	specs := dataset.EuRoCSpecs()
	if seqLimit > 0 && seqLimit < len(specs) {
		specs = specs[:seqLimit]
	}
	var out Figure17
	base := platform.RPi()
	type seqOut struct {
		res     slam.Result
		tx2Bar  platform.SpeedupBreakdown
		fpgaBar platform.SpeedupBreakdown
		tx2     float64
		fpga    float64
		err     error
	}
	runs := parallelx.Map(specs, func(spec dataset.Spec) seqOut {
		seq, err := dataset.Generate(spec)
		if err != nil {
			return seqOut{err: err}
		}
		res := slam.RunSequence(seq)
		return seqOut{
			res:     res,
			tx2Bar:  platform.Breakdown(base, platform.TX2(), res.Name, res.Stats),
			fpgaBar: platform.Breakdown(base, platform.FPGA(), res.Name, res.Stats),
			tx2:     platform.Speedup(base, platform.TX2(), res.Stats),
			fpga:    platform.Speedup(base, platform.FPGA(), res.Stats),
		}
	})
	var tx2s, fpgas []float64
	for _, r := range runs {
		if r.err != nil {
			return out, r.err
		}
		out.Results = append(out.Results, r.res)
		out.TX2Bars = append(out.TX2Bars, r.tx2Bar)
		out.FPGABars = append(out.FPGABars, r.fpgaBar)
		tx2s = append(tx2s, r.tx2)
		fpgas = append(fpgas, r.fpga)
	}
	out.GMeanTX2 = mathx.GeoMean(tx2s)
	out.GMeanFPGA = mathx.GeoMean(fpgas)
	return out, nil
}

// Stats returns the per-sequence work ledgers (for Table 5).
func (fg Figure17) Stats() []slam.Stats {
	out := make([]slam.Stats, len(fg.Results))
	for i, r := range fg.Results {
		out[i] = r.Stats
	}
	return out
}

// Table renders the figure, with each sequence's keyframe count, its RPi
// time per frame, and its total speedup on every offload platform.
func (fg Figure17) Table() Table {
	t := Table{
		Title: "Figure 17: ORB-SLAM speedup over RPi (TX2 and FPGA) by category",
		Columns: []string{"sequence", "ATE(m)", "keyframes", "RPi ms/frame", "sepRPi total", "TX2 total",
			"FPGA total", "ASIC total", "FPGA FE part", "FPGA localBA part", "FPGA globalBA part"},
	}
	base := platform.RPi()
	for i, r := range fg.Results {
		tb, fb := fg.TX2Bars[i], fg.FPGABars[i]
		rpiS, _, _, _ := base.SeqTime(r.Stats)
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%.3f", r.ATE), fmt.Sprint(r.Stats.Keyframes),
			fmt.Sprintf("%.1f", rpiS/float64(r.Frames)*1000),
			f2(platform.Speedup(base, platform.SeparateRPi(), r.Stats)), f2(tb.Total), f2(fb.Total),
			f2(platform.Speedup(base, platform.ASIC(), r.Stats)), f2(fb.FrontEnd), f2(fb.LocalBA), f2(fb.GlobalBA),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GMEAN: TX2 %.2fx (paper 2.16x), FPGA %.1fx (paper 30.7x)", fg.GMeanTX2, fg.GMeanFPGA))
	return t
}

// Table5Bench regenerates the platform-comparison table plus the exact
// (weight-ripple-resolved) ablation.
type Table5Bench struct {
	Rows       []platform.Table5Row
	ExactSmall map[string]float64
	ExactLarge map[string]float64
}

// RunTable5 computes the table from Figure 17's ledgers.
func RunTable5(stats []slam.Stats) (Table5Bench, error) {
	rows := platform.Table5(stats)
	small, large, err := platform.Table5Exact()
	if err != nil {
		return Table5Bench{}, err
	}
	return Table5Bench{Rows: rows, ExactSmall: small, ExactLarge: large}, nil
}

// Table renders the comparison.
func (tb Table5Bench) Table() Table {
	t := Table{
		Title: "Table 5: comparing platforms for SLAM",
		Columns: []string{"platform", "speedup", "power(W)", "weight(g)", "integ.", "fab.",
			"gain small(min)", "gain large(min)", "exact small", "exact large"},
		Notes: []string{
			"paper: speedups 1/2.16/30.7/23.53; gains small 0/-4/2-3/2.2-3.2, large 0/-1.5/1/1 (15 min baseline)",
			"'exact' columns re-resolve the whole design with the platform's weight (Equation 1 ripple): the FPGA's extra 25 g over the RPi erases most of its small-drone gain",
		},
	}
	for _, r := range tb.Rows {
		t.Rows = append(t.Rows, []string{
			r.Platform, f2(r.Speedup), f(r.PowerOverheadW), f(r.WeightOverheadG),
			r.IntegrationCost.String(), r.FabricationCost.String(),
			f2(r.GainedSmallMin), f2(r.GainedLargeMin),
			f2(tb.ExactSmall[r.Platform]), f2(tb.ExactLarge[r.Platform]),
		})
	}
	return t
}
