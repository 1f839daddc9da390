package core

import (
	"sort"

	"dronedse/parallelx"
	"dronedse/units"
)

// FeasibilityIssue flags a physical constraint a resolved design violates.
// Resolve does not fail on these — the paper's sweeps intentionally visit
// marginal regions — but tools surface them.
type FeasibilityIssue int

// Feasibility issues.
const (
	// BatteryCRating: the pack cannot supply the four motors' maximum
	// current within a typical survey C rating (Table 3: Capacity(Ah) x C
	// = I). Checked against a generous 90C product ceiling.
	BatteryCRating FeasibilityIssue = iota
	// ESCOverSpec: the required per-motor current exceeds the heaviest
	// surveyed ESC class (90 A).
	ESCOverSpec
	// ShortFlight: hovering flight time below 5 minutes — the paper
	// shades these regions "Short Flight Time (<5min)" in Figure 10.
	ShortFlight
)

// String implements fmt.Stringer.
func (f FeasibilityIssue) String() string {
	switch f {
	case BatteryCRating:
		return "battery C-rating exceeded"
	case ESCOverSpec:
		return "ESC current over survey ceiling"
	default:
		return "short flight time (<5 min)"
	}
}

// maxSurveyC is the highest discharge rating in the battery survey.
const maxSurveyC = 90

// maxSurveyESCCurrentA is the heaviest surveyed ESC (Figure 8a x-axis).
const maxSurveyESCCurrentA = 90

// Feasibility checks a resolved design against the survey's physical
// ceilings (Table 3's discharge-rate and ESC-current constraints plus the
// Figure 10 short-flight shading).
func (d Design) Feasibility() []FeasibilityIssue {
	var out []FeasibilityIssue
	maxPackA := units.CRatingMaxCurrent(d.Spec.CapacityMah, maxSurveyC)
	if 4*d.MotorMaxCurrentA > maxPackA {
		out = append(out, BatteryCRating)
	}
	if d.MotorMaxCurrentA > maxSurveyESCCurrentA {
		out = append(out, ESCOverSpec)
	}
	if d.HoverFlightTimeMin() < 5 {
		out = append(out, ShortFlight)
	}
	return out
}

// RequiredCRating returns the minimum battery C rating able to feed the
// design's four motors at maximum draw.
func (d Design) RequiredCRating() float64 {
	if d.Spec.CapacityMah <= 0 {
		return 0
	}
	return 4 * d.MotorMaxCurrentA / (d.Spec.CapacityMah / 1000)
}

// ParetoPoint is one non-dominated design in the flight-time/payload (or
// flight-time/compute) tradeoff.
type ParetoPoint struct {
	Design    Design
	FlightMin float64
	// Objective is the second axis value (payload grams or compute watts,
	// per the frontier requested).
	Objective float64
}

// ParetoPayloadFrontier sweeps payload mass for a spec, finding for each
// payload the best battery configuration, and returns the non-dominated
// (payload ↑, flight time ↑) frontier — the "extra payload?" branch of the
// Figure 12 procedure turned into a tool. The spec is validated at every
// payload before the search fans out, and a validation error is returned as
// is; payloads with no feasible configuration are left off the frontier.
func ParetoPayloadFrontier(spec Spec, p Params, payloadsG []float64) ([]ParetoPoint, error) {
	cells := []int{1, 2, 3, 4, 5, 6}
	for _, payload := range payloadsG {
		s := spec
		s.PayloadG = payload
		if err := validateGrid(s, cells, 1000); err != nil {
			return nil, err
		}
	}
	pts := parallelx.FilterMap(payloadsG, func(payload float64) (ParetoPoint, bool) {
		s := spec
		s.PayloadG = payload
		// Validated above, so the only error left is ErrNoConverge.
		best, err := BestConfig(s, p, cells, 1000, 8000, 500)
		if err != nil {
			return ParetoPoint{}, false
		}
		return ParetoPoint{
			Design:    best,
			FlightMin: best.HoverFlightTimeMin(),
			Objective: payload,
		}, true
	})
	return paretoFilter(pts), nil
}

// paretoFilter keeps points not dominated by any other (another point with
// >= objective and > flight time, or > objective and >= flight time).
func paretoFilter(pts []ParetoPoint) []ParetoPoint {
	var out []ParetoPoint
	for i, a := range pts {
		dominated := false
		for j, b := range pts {
			if i == j {
				continue
			}
			if b.Objective >= a.Objective && b.FlightMin >= a.FlightMin &&
				(b.Objective > a.Objective || b.FlightMin > a.FlightMin) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

// TWRPoint is one sample of the §7 TWR sensitivity study.
type TWRPoint struct {
	TWR                  float64
	TotalWeightG         float64
	HoverPowerW          float64
	ComputeShareHoverPct float64
	FlightMin            float64
}

// TWRSweep evaluates the design at thrust-to-weight ratios from 2 to 7
// (Table 3's common range). The paper's conclusion (§7): higher TWR lowers
// the compute contribution further; TWR 2 is the upper bound on compute's
// share. The spec is validated once, and a validation error is returned as
// is; infeasible ratios are skipped.
func TWRSweep(spec Spec, p Params) ([]TWRPoint, error) {
	twrs := []float64{2, 3, 4, 5, 6, 7}
	s := spec
	s.TWR = twrs[0]
	if err := s.validate(); err != nil {
		return nil, err
	}
	return parallelx.FilterMap(twrs, func(twr float64) (TWRPoint, bool) {
		s := spec
		s.TWR = twr
		// Validated above, so the only error left is ErrNoConverge.
		d, err := Resolve(s, p)
		if err != nil {
			return TWRPoint{}, false
		}
		return TWRPoint{
			TWR:                  twr,
			TotalWeightG:         d.TotalG,
			HoverPowerW:          d.HoverPowerW(),
			ComputeShareHoverPct: d.ComputeSharePct(p.HoverLoad),
			FlightMin:            d.HoverFlightTimeMin(),
		}, true
	}), nil
}

// SensorPayloadPoint is one sample of the §3.1 external-sensor study: how a
// self-powered LiDAR package's weight squeezes the compute share.
type SensorPayloadPoint struct {
	SensorName           string
	SensorWeightG        float64
	TotalWeightG         float64
	ComputeShareHoverPct float64
	FlightMin            float64
}

// SensorPayloadStudy adds each self-powered LiDAR from Table 4 to a large
// drone and reports the squeeze on the computation power boundary ("We
// study how the addition of these sensors due to their weight reduces the
// contribution boundary of main computation power in large drones"). The
// spec is validated with every sensor before any design is resolved, and a
// validation error is returned as is; an infeasible base design gives no
// points, and infeasible sensors are skipped.
func SensorPayloadStudy(spec Spec, p Params, sensors []struct {
	Name    string
	WeightG float64
}) ([]SensorPayloadPoint, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	for _, sn := range sensors {
		s := spec
		s.SensorsG = sn.WeightG
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	// Validated above, so the only error left is ErrNoConverge.
	base, err := Resolve(spec, p)
	if err != nil {
		return nil, nil
	}
	out := []SensorPayloadPoint{{
		SensorName:           "(none)",
		TotalWeightG:         base.TotalG,
		ComputeShareHoverPct: base.ComputeSharePct(p.HoverLoad),
		FlightMin:            base.HoverFlightTimeMin(),
	}}
	pts := parallelx.FilterMap(sensors, func(sn struct {
		Name    string
		WeightG float64
	}) (SensorPayloadPoint, bool) {
		s := spec
		s.SensorsG = sn.WeightG // self-powered: weight only
		d, err := Resolve(s, p)
		if err != nil {
			return SensorPayloadPoint{}, false
		}
		return SensorPayloadPoint{
			SensorName:           sn.Name,
			SensorWeightG:        sn.WeightG,
			TotalWeightG:         d.TotalG,
			ComputeShareHoverPct: d.ComputeSharePct(p.HoverLoad),
			FlightMin:            d.HoverFlightTimeMin(),
		}, true
	})
	return append(out, pts...), nil
}
