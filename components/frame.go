package components

import (
	"fmt"
	"math/rand"

	"dronedse/fit"
	"dronedse/mathx"
)

// Frame is one commercial quadcopter frame product.
type Frame struct {
	Name string
	// WheelbaseMM is the diagonal motor-to-motor distance (Table 3).
	WheelbaseMM float64
	// WeightG is the bare frame weight in grams.
	WeightG float64
}

// Figure8b publishes the frame weight model: y = 1.2767x - 167.6 for
// wheelbase x > 200 mm; below 200 mm frames sit in a flat 50-200 g band.
const (
	Figure8bSlope     = 1.2767
	Figure8bIntercept = -167.6
	// Figure8bBreakMM is the wheelbase where the regimes split.
	Figure8bBreakMM = 200.0
)

// FrameWeightModel predicts frame weight in grams from wheelbase in mm,
// using the published large-frame line above the break and a gentle ramp
// through the paper's 50-200 g small-frame band below it.
func FrameWeightModel(wheelbaseMM float64) float64 {
	if wheelbaseMM >= Figure8bBreakMM {
		return Figure8bSlope*wheelbaseMM + Figure8bIntercept
	}
	// Small frames: ~30 g at 50 mm rising to the ~88 g the big-frame line
	// gives at the 200 mm break, inside the paper's 50 < y < 200 band.
	atBreak := Figure8bSlope*Figure8bBreakMM + Figure8bIntercept
	t := (wheelbaseMM - 50) / (Figure8bBreakMM - 50)
	if t < 0 {
		t = 0
	}
	return 30 + t*(atBreak-30)
}

// namedFrames are the products called out in Figure 8b.
var namedFrames = []Frame{
	{Name: "220 Martian II", WheelbaseMM: 220, WeightG: 125},
	{Name: "iFlight BumbleBee", WheelbaseMM: 142, WeightG: 128},
	{Name: "Crazepony F450 (our drone)", WheelbaseMM: 450, WeightG: 272},
	{Name: "Readytosky S500", WheelbaseMM: 500, WeightG: 405},
	{Name: "Tarot T960", WheelbaseMM: 960, WeightG: 1005},
}

var frameVendors = []string{
	"GEPRC", "Armattan", "TBS", "Diatone", "HGLRC", "Flywoo", "Tarot",
	"Lumenier", "ImpulseRC", "Source",
}

// GenerateFrameCatalog returns a deterministic 25-frame catalog (Figure 8b):
// the five named products plus 20 synthesized frames spanning 65-1000 mm
// scattered around the weight model.
func GenerateFrameCatalog(seed int64) []Frame {
	r := rand.New(mathx.NewSource(seed))
	out := append([]Frame(nil), namedFrames...)
	for i := 0; i < 20; i++ {
		// First five fill the sparse small-frame region; the rest span
		// the large-frame regime, mirroring the survey's coverage.
		var wb float64
		if i < 5 {
			wb = 65 + r.Float64()*130
		} else {
			wb = 200 + r.Float64()*800
		}
		wb = float64(int(wb/5)) * 5
		w := FrameWeightModel(wb) * (1 + 0.08*r.NormFloat64())
		if w < 20 {
			w = 20
		}
		out = append(out, Frame{
			Name:        fmt.Sprintf("%s %0.0fmm", frameVendors[r.Intn(len(frameVendors))], wb),
			WheelbaseMM: wb,
			WeightG:     w,
		})
	}
	return out
}

// FitFrameCatalog reproduces Figure 8b's extraction: a piecewise fit with the
// paper's 200 mm break.
func FitFrameCatalog(frames []Frame) fit.Piecewise2 {
	pts := make([]fit.Point, len(frames))
	for i, f := range frames {
		pts[i] = fit.Point{X: f.WheelbaseMM, Y: f.WeightG}
	}
	return fit.FitPiecewise2(pts, Figure8bBreakMM)
}

// MaxPropellerInches returns the largest propeller diameter (inches) a frame
// wheelbase supports, per the Figure 9 pairings (50 mm-1", 100 mm-2",
// 200 mm-5", 450 mm-10", 800 mm-20"); intermediate wheelbases interpolate
// on the same geometric proportionality.
func MaxPropellerInches(wheelbaseMM float64) float64 {
	return fit.Interp1Sorted(propellerAnchors, wheelbaseMM)
}

// propellerAnchors is the wheelbase→propeller pairing table, sorted by X so
// the per-Resolve lookup allocates nothing.
var propellerAnchors = []fit.Point{{X: 50, Y: 1}, {X: 100, Y: 2}, {X: 200, Y: 5}, {X: 450, Y: 10}, {X: 800, Y: 20}, {X: 1000, Y: 24}}
