package mathx

import "math"

// GeoMean returns the geometric mean of xs; all values must be positive.
// It returns 0 for an empty slice. The paper reports SLAM speedups as GMean
// (Figure 17), so the harness uses this.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
