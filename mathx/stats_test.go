package mathx

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	if got := GeoMean([]float64{1, -1}); !math.IsNaN(got) {
		t.Errorf("GeoMean with negative = %v, want NaN", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev single != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestWithin(t *testing.T) {
	if !Within(1.05, 1.0, 0.1) || Within(1.2, 1.0, 0.1) {
		t.Error("Within wrong")
	}
	if !WithinRel(110, 100, 0.15) || WithinRel(130, 100, 0.15) {
		t.Error("WithinRel wrong")
	}
	if !WithinRel(0.05, 0, 0.1) {
		t.Error("WithinRel zero-want wrong")
	}
}
