// Package fit provides the least-squares model extraction the paper applies
// to its commercial-component survey (§3.1): simple linear regression with
// quality-of-fit measures, plus piecewise and grouped fits matching how the
// paper splits batteries by cell count (Figure 7), ESCs by flight class
// (Figure 8a), and frames by wheelbase regime (Figure 8b).
package fit

import (
	"errors"
	"math"
	"sort"
)

// Linear is a fitted line y = Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit on its data.
	R2 float64
	// N is the number of points the fit was computed from.
	N int
}

// ErrInsufficientData is returned when a regression has fewer than two
// distinct points.
var ErrInsufficientData = errors.New("fit: need at least two distinct points")

// LinearRegression fits y = a*x + b by ordinary least squares.
func LinearRegression(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, errors.New("fit: mismatched sample lengths")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Linear{}, ErrInsufficientData
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, ErrInsufficientData
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (slope*xs[i] + intercept)
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return Linear{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// Point is a 2-D sample.
type Point struct{ X, Y float64 }

// GroupedFit fits one line per group key. It mirrors the paper's Figure 7,
// where each battery cell-count configuration gets its own capacity-weight
// line.
func GroupedFit[K comparable](points map[K][]Point) (map[K]Linear, error) {
	out := make(map[K]Linear, len(points))
	for k, ps := range points {
		xs := make([]float64, len(ps))
		ys := make([]float64, len(ps))
		for i, p := range ps {
			xs[i], ys[i] = p.X, p.Y
		}
		l, err := LinearRegression(xs, ys)
		if err != nil {
			return nil, err
		}
		out[k] = l
	}
	return out, nil
}

// Piecewise2 fits two linear segments split at breakX: points with X < breakX
// go to Low, the rest to High. This is the Figure 8b frame model (flat small
// frames below 200 mm, a steep line above).
type Piecewise2 struct {
	BreakX float64
	Low    Linear
	High   Linear
}

// FitPiecewise2 performs the two-segment fit. Segments with fewer than two
// points yield a zero-valued Linear for that side and no error, matching the
// paper's treatment of the sparse small-frame region.
func FitPiecewise2(points []Point, breakX float64) Piecewise2 {
	var lowX, lowY, highX, highY []float64
	for _, p := range points {
		if p.X < breakX {
			lowX, lowY = append(lowX, p.X), append(lowY, p.Y)
		} else {
			highX, highY = append(highX, p.X), append(highY, p.Y)
		}
	}
	out := Piecewise2{BreakX: breakX}
	if l, err := LinearRegression(lowX, lowY); err == nil {
		out.Low = l
	}
	if h, err := LinearRegression(highX, highY); err == nil {
		out.High = h
	}
	return out
}

// Interp1Sorted linearly interpolates y at x over points sorted ascending
// by X, clamping outside the domain. It backs the wheelbase-to-propeller
// lookup (components.MaxPropellerInches) and performs no allocation, so
// lookup tables evaluated
// once per Resolve call (the design-space sweeps visit millions) can be
// package-level constants.
func Interp1Sorted(ps []Point, x float64) float64 {
	if len(ps) == 0 {
		return math.NaN()
	}
	if x <= ps[0].X {
		return ps[0].Y
	}
	if x >= ps[len(ps)-1].X {
		return ps[len(ps)-1].Y
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].X >= x })
	a, b := ps[i-1], ps[i]
	if b.X == a.X {
		return a.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}
