package bench

import (
	"fmt"

	"dronedse/components"
	"dronedse/core"
	"dronedse/parallelx"
)

// Figure7 regenerates the battery survey and its per-configuration fits.
type Figure7 struct {
	Fits map[int]struct {
		Slope, Intercept, R2 float64
		PaperSlope           float64
		PaperIntercept       float64
		N                    int
	}
}

// RunFigure7 fits the 250-battery catalog per cell configuration.
func RunFigure7(seed int64) (Figure7, error) {
	cat := components.GenerateBatteryCatalog(seed)
	fits, err := components.FitBatteryCatalog(cat)
	if err != nil {
		return Figure7{}, err
	}
	out := Figure7{Fits: map[int]struct {
		Slope, Intercept, R2 float64
		PaperSlope           float64
		PaperIntercept       float64
		N                    int
	}{}}
	for cells, l := range fits {
		paper := components.Figure7Lines[cells]
		out.Fits[cells] = struct {
			Slope, Intercept, R2 float64
			PaperSlope           float64
			PaperIntercept       float64
			N                    int
		}{l.Slope, l.Intercept, l.R2, paper.Slope, paper.Intercept, l.N}
	}
	return out, nil
}

// Table renders the figure.
func (fg Figure7) Table() Table {
	t := Table{
		Title:   "Figure 7: LiPo capacity vs weight per configuration (250 batteries)",
		Columns: []string{"config", "slope(g/mAh)", "intercept(g)", "R2", "paper slope", "paper intercept", "n"},
		Notes:   []string{"paper lines: weight = slope*capacity + intercept, per xS configuration"},
	}
	for _, cells := range sortedKeys(fg.Fits) {
		v := fg.Fits[cells]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dS1P", cells), f(v.Slope), f(v.Intercept), f2(v.R2),
			f(v.PaperSlope), f(v.PaperIntercept), fmt.Sprint(v.N),
		})
	}
	return t
}

// Figure8 regenerates the ESC (a) and frame (b) surveys.
type Figure8 struct {
	ESCLong, ESCShort struct {
		Slope, Intercept float64
		PaperSlope       float64
		PaperIntercept   float64
	}
	FrameHighSlope      float64
	FrameHighIntercept  float64
	PaperFrameSlope     float64
	PaperFrameIntercept float64
}

// RunFigure8 fits both catalogs.
func RunFigure8(seed int64) (Figure8, error) {
	var out Figure8
	escFits, err := components.FitESCCatalog(components.GenerateESCCatalog(seed + 1))
	if err != nil {
		return out, err
	}
	long, short := escFits[components.LongFlight], escFits[components.ShortFlight]
	out.ESCLong.Slope, out.ESCLong.Intercept = long.Slope, long.Intercept
	out.ESCLong.PaperSlope = components.Figure8aLines[components.LongFlight].Slope
	out.ESCLong.PaperIntercept = components.Figure8aLines[components.LongFlight].Intercept
	out.ESCShort.Slope, out.ESCShort.Intercept = short.Slope, short.Intercept
	out.ESCShort.PaperSlope = components.Figure8aLines[components.ShortFlight].Slope
	out.ESCShort.PaperIntercept = components.Figure8aLines[components.ShortFlight].Intercept

	pw := components.FitFrameCatalog(components.GenerateFrameCatalog(seed + 2))
	out.FrameHighSlope, out.FrameHighIntercept = pw.High.Slope, pw.High.Intercept
	out.PaperFrameSlope, out.PaperFrameIntercept = components.Figure8bSlope, components.Figure8bIntercept
	return out, nil
}

// Table renders the figure.
func (fg Figure8) Table() Table {
	return Table{
		Title:   "Figure 8: ESC current-weight (a) and frame wheelbase-weight (b) fits",
		Columns: []string{"fit", "slope", "intercept", "paper slope", "paper intercept"},
		Rows: [][]string{
			{"ESC long-flight", f(fg.ESCLong.Slope), f(fg.ESCLong.Intercept), f(fg.ESCLong.PaperSlope), f(fg.ESCLong.PaperIntercept)},
			{"ESC short-flight", f(fg.ESCShort.Slope), f(fg.ESCShort.Intercept), f(fg.ESCShort.PaperSlope), f(fg.ESCShort.PaperIntercept)},
			{"frame (>200mm)", f(fg.FrameHighSlope), f(fg.FrameHighIntercept), f(fg.PaperFrameSlope), f(fg.PaperFrameIntercept)},
		},
	}
}

// Figure9 regenerates the motor current vs basic weight lines.
type Figure9 struct {
	// Lines[wheelbase][cells] = sampled points.
	Lines map[float64]map[int][]core.MotorCurrentPoint
	// MinBasicWeight[wheelbase] is the "Min. Possible Weight Line".
	MinBasicWeight map[float64]float64
}

// Figure9Weights returns the per-wheelbase basic-weight spans used in the
// reproduction (the closure exposes infeasibility where the paper's
// extrapolated lines keep going; see DESIGN.md).
func Figure9Weights() map[float64][]float64 {
	return map[float64][]float64{
		50:  {30, 40, 50, 60},
		100: {100, 150, 200, 250, 300},
		200: {150, 300, 450, 600, 700},
		450: {300, 600, 900, 1200, 1500, 1800},
		800: {800, 1200, 1600, 2000, 2400, 2700},
	}
}

// RunFigure9 sweeps every wheelbase/cell-count line. The (wheelbase, cells)
// grid fans out across the parallelx pool; the maps are assembled serially
// from the ordered results.
func RunFigure9() Figure9 {
	out := Figure9{
		Lines:          map[float64]map[int][]core.MotorCurrentPoint{},
		MinBasicWeight: map[float64]float64{},
	}
	weightsByWB := Figure9Weights()
	type job struct {
		wb    float64
		cells int
	}
	var jobs []job
	var wbs []float64
	for wb := range weightsByWB {
		wbs = append(wbs, wb)
	}
	sortFloats(wbs)
	for _, wb := range wbs {
		for cells := 1; cells <= 6; cells++ {
			jobs = append(jobs, job{wb, cells})
		}
	}
	lines := parallelx.Map(jobs, func(j job) []core.MotorCurrentPoint {
		return core.MotorCurrentVsBasicWeight(j.wb, j.cells, 2, weightsByWB[j.wb])
	})
	for i, j := range jobs {
		if out.Lines[j.wb] == nil {
			out.Lines[j.wb] = map[int][]core.MotorCurrentPoint{}
		}
		out.Lines[j.wb][j.cells] = lines[i]
	}
	for _, wb := range wbs {
		out.MinBasicWeight[wb] = core.MinFeasibleBasicWeightG(wb)
	}
	return out
}

// Table renders one row per (wheelbase, cells) with the span of currents.
func (fg Figure9) Table() Table {
	t := Table{
		Title:   "Figure 9: per-motor max current draw vs basic weight (TWR=2)",
		Columns: []string{"wheelbase", "cells", "weights(g)", "current(A) span", "Kv @ first point"},
		Notes:   []string{"higher supply voltage lowers current; small wheelbases need extreme Kv (paper: 51000Kv at 1\"/1S, 420Kv at 20\"/6S)"},
	}
	var wbs []float64
	for wb := range fg.Lines {
		wbs = append(wbs, wb)
	}
	sortFloats(wbs)
	for _, wb := range wbs {
		for cells := 1; cells <= 6; cells++ {
			pts := fg.Lines[wb][cells]
			if len(pts) == 0 {
				t.Rows = append(t.Rows, []string{f(wb), fmt.Sprint(cells), "-", "infeasible", "-"})
				continue
			}
			t.Rows = append(t.Rows, []string{
				f(wb), fmt.Sprint(cells),
				fmt.Sprintf("%g-%g", pts[0].BasicWeightG, pts[len(pts)-1].BasicWeightG),
				fmt.Sprintf("%.1f-%.1f", pts[0].CurrentA, pts[len(pts)-1].CurrentA),
				fmt.Sprintf("%.0f", pts[0].Kv),
			})
		}
	}
	return t
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
