package core

import (
	"reflect"
	"testing"

	"dronedse/components"
	"dronedse/parallelx"
)

// testPools are the pool sizes every determinism property is checked at:
// the serial oracle, a small pool, and an oversubscribed one.
var testPools = []int{1, 2, 8}

// atPool runs body with the parallelx pool forced to n, restoring it after.
func atPool(t *testing.T, n int, body func()) {
	t.Helper()
	prev := parallelx.SetPoolSize(n)
	defer parallelx.SetPoolSize(prev)
	body()
}

// TestSweepCapacityDeterministic: the parallel sweep is identical to the
// serial loop at every pool size.
func TestSweepCapacityDeterministic(t *testing.T) {
	spec := DefaultSpec()
	var want []SweepPoint
	atPool(t, 1, func() {
		want = mustSweep(t, spec, 1000, 8000, 250)
	})
	if len(want) == 0 {
		t.Fatal("serial sweep is empty")
	}
	for _, pool := range testPools {
		atPool(t, pool, func() {
			if got := mustSweep(t, spec, 1000, 8000, 250); !reflect.DeepEqual(got, want) {
				t.Fatalf("pool=%d sweep differs from serial", pool)
			}
		})
	}
}

// TestSweepCapacityGridEndpoints: integer step indexing never drops the last
// grid point, including steps that are not exactly representable in binary.
func TestSweepCapacityGridEndpoints(t *testing.T) {
	spec := DefaultSpec()
	cases := []struct {
		lo, hi, step float64
		wantN        int
	}{
		{1000, 8000, 250, 29},
		{1000, 8000, 500, 15},
		// A non-representable step: repeated accumulation drifts, but the
		// indexed grid (lo + i*step) stays exact for every point.
		{1000, 8000, 10.7, 655},
		{3000, 3000, 500, 1},
	}
	for _, c := range cases {
		pts := mustSweep(t, spec, c.lo, c.hi, c.step)
		if len(pts) != c.wantN {
			t.Errorf("grid [%g,%g] step %g: %d points, want %d", c.lo, c.hi, c.step, len(pts), c.wantN)
			continue
		}
		last := pts[len(pts)-1].CapacityMah
		wantLast := c.lo + float64(c.wantN-1)*c.step
		if last != wantLast {
			t.Errorf("grid [%g,%g] step %g: last point %v, want %v", c.lo, c.hi, c.step, last, wantLast)
		}
	}
	if pts := mustSweep(t, spec, 8000, 1000, 250); pts != nil {
		t.Error("inverted grid should be empty")
	}
	if pts := mustSweep(t, spec, 1000, 8000, 0); pts != nil {
		t.Error("zero step should be empty, not an infinite loop")
	}
}

// TestBestConfigDeterministic: the parallel cells x capacity search picks
// the exact design (tie-breaks included) the serial double loop picked.
func TestBestConfigDeterministic(t *testing.T) {
	spec := DefaultSpec()
	cells := []int{1, 2, 3, 4, 5, 6}
	var want Design
	var wantOK bool
	atPool(t, 1, func() {
		want, wantOK = mustBest(t, spec, cells, 1000, 8000, 250)
	})
	if !wantOK {
		t.Fatal("serial BestConfig found nothing")
	}
	for _, pool := range testPools {
		atPool(t, pool, func() {
			got, ok := mustBest(t, spec, cells, 1000, 8000, 250)
			if !ok || got != want {
				t.Fatalf("pool=%d BestConfig differs: ok=%v got %dS %.0f mAh, want %dS %.0f mAh",
					pool, ok, got.Spec.Cells, got.Spec.CapacityMah, want.Spec.Cells, want.Spec.CapacityMah)
			}
		})
	}
}

// TestFrontiersDeterministic covers the three frontier/study functions in
// pareto.go at every pool size.
func TestFrontiersDeterministic(t *testing.T) {
	spec := DefaultSpec()
	payloads := []float64{0, 100, 200, 400, 800}
	sensors := []struct {
		Name    string
		WeightG float64
	}{{"lidar-a", 100}, {"lidar-b", 250}, {"lidar-c", 590}}
	large := Spec{WheelbaseMM: 800, Cells: 6, CapacityMah: 8000, TWR: 2,
		Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight}

	twr := func() []TWRPoint {
		pts, err := TWRSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	sensorStudy := func() []SensorPayloadPoint {
		pts, err := SensorPayloadStudy(large, sensors)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	var wantPayload []ParetoPoint
	var wantTWR []TWRPoint
	var wantSensor []SensorPayloadPoint
	atPool(t, 1, func() {
		wantPayload = mustFrontier(t, spec, payloads)
		wantTWR = twr()
		wantSensor = sensorStudy()
	})
	if len(wantPayload) == 0 || len(wantTWR) == 0 || len(wantSensor) == 0 {
		t.Fatal("serial frontiers empty")
	}
	for _, pool := range testPools {
		atPool(t, pool, func() {
			if got := mustFrontier(t, spec, payloads); !reflect.DeepEqual(got, wantPayload) {
				t.Errorf("pool=%d payload frontier differs", pool)
			}
			if got := twr(); !reflect.DeepEqual(got, wantTWR) {
				t.Errorf("pool=%d TWR sweep differs", pool)
			}
			if got := sensorStudy(); !reflect.DeepEqual(got, wantSensor) {
				t.Errorf("pool=%d sensor study differs", pool)
			}
		})
	}
}

// TestMotorCurrentDeterministic: the Figure 9 closure line is pool-invariant
// and the shared closeWeightLoop produces designs consistent with Resolve:
// a Resolve with zero wiring overhead and the basic weight as its fixed mass
// lands on the same current (the dedup satellite's regression anchor).
func TestMotorCurrentDeterministic(t *testing.T) {
	weights := []float64{300, 600, 900, 1200, 1500}
	var want []MotorCurrentPoint
	atPool(t, 1, func() { want = MotorCurrentVsBasicWeight(450, 3, 2, weights) })
	if len(want) != len(weights) {
		t.Fatalf("serial line has %d of %d points", len(want), len(weights))
	}
	for _, pool := range testPools {
		atPool(t, pool, func() {
			if got := MotorCurrentVsBasicWeight(450, 3, 2, weights); !reflect.DeepEqual(got, want) {
				t.Fatalf("pool=%d Figure 9 line differs from serial", pool)
			}
		})
	}
}
