package mathx

import (
	"math"
	"testing"
)

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
