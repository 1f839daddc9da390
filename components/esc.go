package components

import (
	"fmt"
	"math/rand"

	"dronedse/fit"
	"dronedse/mathx"
)

// ESCClass separates the two ESC families of Figure 8a.
type ESCClass int

const (
	// LongFlight ESCs sustain continuous current for normal missions;
	// they carry heavier MOSFETs and capacitors.
	LongFlight ESCClass = iota
	// ShortFlight ESCs target racing (<5 min): lighter parts that
	// overheat on longer flights.
	ShortFlight
)

// String implements fmt.Stringer.
func (c ESCClass) String() string {
	if c == ShortFlight {
		return "short-flight"
	}
	return "long-flight"
}

// ESC is one commercial electronic speed controller product. Weights follow
// the paper's convention of reporting the total for a set of four (quadcopter
// BoM view).
type ESC struct {
	Name string
	// MaxCurrentA is the maximum continuous current per ESC (A).
	MaxCurrentA float64
	// Weight4xG is the weight of four ESCs in grams (Figure 8a's y-axis).
	Weight4xG float64
	Class     ESCClass
	// SwitchingKHz is the commutation switching frequency (§2.1.2:
	// 60-600 kHz).
	SwitchingKHz float64
}

// Figure8aLines are the published current-to-weight fits: long-flight
// y = 4.9678x - 15.757 and short-flight y = 1.2269x + 11.816 (x = max
// continuous current per ESC, y = weight of 4 ESCs).
var Figure8aLines = map[ESCClass]BatteryLine{
	LongFlight:  {4.9678, -15.757},
	ShortFlight: {1.2269, 11.816},
}

// ESCWeightModel predicts the 4x-ESC weight in grams for a required
// per-ESC continuous current, by class, clamped to a 8 g floor (connectors
// and wire are never free).
func ESCWeightModel(class ESCClass, maxCurrentA float64) float64 {
	l := Figure8aLines[class]
	w := l.Slope*maxCurrentA + l.Intercept
	if w < 8 {
		w = 8
	}
	return w
}

var escVendors = []string{
	"Hobbywing", "T-Motor", "iFlight", "Holybro", "BLHeli", "Spedix",
	"Lumenier", "Aikon", "EMAX", "Racerstar",
}

// GenerateESCCatalog returns a deterministic 40-ESC catalog (Figure 8a): 20
// long-flight products spanning 10-90 A and 20 short-flight racing products,
// scattered around the published lines.
func GenerateESCCatalog(seed int64) []ESC {
	r := rand.New(mathx.NewSource(seed))
	var out []ESC
	for i := 0; i < 40; i++ {
		class := LongFlight
		if i%2 == 1 {
			class = ShortFlight
		}
		cur := 10 + r.Float64()*80
		cur = float64(int(cur/5)) * 5 // 5 A product steps
		if cur < 10 {
			cur = 10
		}
		w := ESCWeightModel(class, cur) * (1 + 0.06*r.NormFloat64())
		if w < 8 {
			w = 8
		}
		out = append(out, ESC{
			Name:         fmt.Sprintf("%s %s %0.0fA", escVendors[r.Intn(len(escVendors))], class, cur),
			MaxCurrentA:  cur,
			Weight4xG:    w,
			Class:        class,
			SwitchingKHz: 60 + r.Float64()*540,
		})
	}
	return out
}

// FitESCCatalog regresses 4x-ESC weight against per-ESC max continuous
// current per class, reproducing Figure 8a's extraction.
func FitESCCatalog(escs []ESC) (map[ESCClass]fit.Linear, error) {
	groups := make(map[ESCClass][]fit.Point)
	for _, e := range escs {
		groups[e.Class] = append(groups[e.Class], fit.Point{X: e.MaxCurrentA, Y: e.Weight4xG})
	}
	return fit.GroupedFit(groups)
}

// SelectESC returns the lightest catalog ESC of the class able to sustain
// the required per-ESC current, or ok=false when none can.
func SelectESC(catalog []ESC, class ESCClass, requiredA float64) (ESC, bool) {
	best := ESC{}
	found := false
	for _, e := range catalog {
		if e.Class != class || e.MaxCurrentA < requiredA {
			continue
		}
		if !found || e.Weight4xG < best.Weight4xG {
			best, found = e, true
		}
	}
	return best, found
}
