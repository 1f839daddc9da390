package mathx

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

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

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Within reports whether x is within tol of want (absolute tolerance).
func Within(x, want, tol float64) bool { return math.Abs(x-want) <= tol }

// WithinRel reports whether x is within fractional tolerance rel of want.
func WithinRel(x, want, rel float64) bool {
	if want == 0 {
		return math.Abs(x) <= rel
	}
	return math.Abs(x-want) <= math.Abs(want)*rel
}
