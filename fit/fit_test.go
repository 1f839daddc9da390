package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	l, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", l.R2)
	}
	if l.N != 4 {
		t.Errorf("N = %d", l.N)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := r.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 0.5*x+10+r.NormFloat64()*2)
	}
	l, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-0.5) > 0.02 {
		t.Errorf("slope = %v, want ~0.5", l.Slope)
	}
	if math.Abs(l.Intercept-10) > 1.5 {
		t.Errorf("intercept = %v, want ~10", l.Intercept)
	}
	if l.R2 < 0.97 {
		t.Errorf("R2 = %v, want > 0.97", l.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearRegression([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("vertical data accepted")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestLinearRegressionRecoversProperty(t *testing.T) {
	// For any slope/intercept in a reasonable range, a noiseless fit
	// recovers them.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slope := (r.Float64() - 0.5) * 20
		inter := (r.Float64() - 0.5) * 200
		var xs, ys []float64
		for i := 0; i < 10; i++ {
			x := float64(i) * 7.3
			xs = append(xs, x)
			ys = append(ys, slope*x+inter)
		}
		l, err := LinearRegression(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(l.Slope-slope) < 1e-9 && math.Abs(l.Intercept-inter) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGroupedFit(t *testing.T) {
	points := map[int][]Point{
		1: {{0, 0}, {1, 1}, {2, 2}},
		2: {{0, 5}, {1, 7}, {2, 9}},
	}
	fits, err := GroupedFit(points)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fits[1].Slope-1) > 1e-12 || math.Abs(fits[2].Slope-2) > 1e-12 {
		t.Errorf("grouped fits wrong: %+v", fits)
	}
	if math.Abs(fits[2].Intercept-5) > 1e-12 {
		t.Errorf("group 2 intercept = %v", fits[2].Intercept)
	}
}

func TestGroupedFitPropagatesError(t *testing.T) {
	points := map[string][]Point{"bad": {{1, 1}}}
	if _, err := GroupedFit(points); err == nil {
		t.Error("insufficient group accepted")
	}
}

func TestPiecewise2(t *testing.T) {
	var pts []Point
	for x := 0.0; x < 200; x += 20 {
		pts = append(pts, Point{x, 100}) // flat low region
	}
	for x := 200.0; x <= 1000; x += 50 {
		pts = append(pts, Point{x, 1.2*x - 160})
	}
	pw := FitPiecewise2(pts, 200)
	if math.Abs(pw.Low.Slope) > 1e-9 || math.Abs(pw.Low.Intercept-100) > 1e-9 {
		t.Errorf("low fit = %+v", pw.Low)
	}
	if math.Abs(pw.High.Slope-1.2) > 1e-9 || math.Abs(pw.High.Intercept+160) > 1e-9 {
		t.Errorf("high fit = %+v", pw.High)
	}
}

func TestInterp1(t *testing.T) {
	pts := []Point{{0, 0}, {10, 100}, {20, 100}}
	if got := Interp1Sorted(pts, 5); math.Abs(got-50) > 1e-12 {
		t.Errorf("Interp1Sorted(5) = %v", got)
	}
	if got := Interp1Sorted(pts, -5); got != 0 {
		t.Errorf("clamp low = %v", got)
	}
	if got := Interp1Sorted(pts, 50); got != 100 {
		t.Errorf("clamp high = %v", got)
	}
	if got := Interp1Sorted(pts, 15); math.Abs(got-100) > 1e-12 {
		t.Errorf("Interp1Sorted(15) = %v", got)
	}
	if !math.IsNaN(Interp1Sorted(nil, 1)) {
		t.Error("empty Interp1Sorted should be NaN")
	}
}
