package trace

import (
	"math"
	"math/rand"
	"testing"
)

// newTestRNG backs a hand-built Recorder; with noiseW zero the draws are
// multiplied away, so the samples are exact.
func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func feedConstant(r *Recorder, from, to, powerW, stepS float64) {
	for t := from; t < to; t += stepS {
		r.Observe(t, powerW)
	}
}

func TestRecorderSamplingRate(t *testing.T) {
	r := NewUSBMeter(1)
	feedConstant(r, 0, 10, 3.39, 0.001)
	n := len(r.Samples())
	if n < 19 || n > 21 {
		t.Errorf("USB meter took %d samples in 10 s, want ~20 at 0.5 s period", n)
	}
	o := NewOscilloscope(2)
	feedConstant(o, 0, 1, 130, 0.001)
	if n := len(o.Samples()); n < 48 || n > 52 {
		t.Errorf("oscilloscope took %d samples in 1 s, want ~50 at 20 ms period", n)
	}
}

func TestRecorderNoiseLevel(t *testing.T) {
	for _, c := range []struct {
		name           string
		r              *Recorder
		powerW, noiseW float64
	}{
		{"USB meter", NewUSBMeter(3), 4.0, 0.010},
		{"oscilloscope", NewOscilloscope(3), 130, 0.0005},
	} {
		feedConstant(c.r, 0, 600, c.powerW, 0.01)
		if mean := c.r.MeanPower(0, 600); math.Abs(mean-c.powerW) > c.noiseW/2 {
			t.Errorf("%s: mean power = %v, want ~%v", c.name, mean, c.powerW)
		}
		// Spread should reflect the configured instrument error.
		var sq float64
		for _, s := range c.r.Samples() {
			d := s.PowerW - c.powerW
			sq += d * d
		}
		std := math.Sqrt(sq / float64(len(c.r.Samples())))
		if std < c.noiseW/2 || std > 2*c.noiseW {
			t.Errorf("%s: noise std = %v, configured %v", c.name, std, c.noiseW)
		}
	}
}

func TestMeanAndPeakWindows(t *testing.T) {
	r := NewOscilloscope(4)
	feedConstant(r, 0, 5, 100, 0.005)
	feedConstant(r, 5, 10, 250, 0.005)
	if m := r.MeanPower(0, 5); math.Abs(m-100) > 1 {
		t.Errorf("first-window mean = %v", m)
	}
	if m := r.MeanPower(5, 10); math.Abs(m-250) > 1 {
		t.Errorf("second-window mean = %v", m)
	}
	if p := r.PeakPower(0, 10); math.Abs(p-250) > 1 {
		t.Errorf("peak = %v", p)
	}
	if r.MeanPower(50, 60) != 0 || r.PeakPower(50, 60) != 0 {
		t.Error("empty window should read 0")
	}
}

func TestEnergyIntegration(t *testing.T) {
	r := NewOscilloscope(5)
	feedConstant(r, 0, 3600, 130, 0.02) // one hour at 130 W
	if wh := r.EnergyWh(); math.Abs(wh-130) > 1.5 {
		t.Errorf("energy = %v Wh, want ~130", wh)
	}
	if NewOscilloscope(6).EnergyWh() != 0 {
		t.Error("empty recording has nonzero energy")
	}
}

func TestPhaseMeans(t *testing.T) {
	r := NewUSBMeter(7)
	feedConstant(r, 0, 100, 3.39, 0.01)
	feedConstant(r, 100, 200, 4.05, 0.01)
	feedConstant(r, 200, 300, 4.56, 0.01)
	means := PhaseMeans(r, []Phase{
		{"autopilot", 0, 100},
		{"slam-idle", 100, 200},
		{"slam-flying", 200, 300},
	})
	if math.Abs(means["autopilot"]-3.39) > 0.01 ||
		math.Abs(means["slam-idle"]-4.05) > 0.01 ||
		math.Abs(means["slam-flying"]-4.56) > 0.01 {
		t.Errorf("phase means = %v", means)
	}
}

// TestSparseObserveZeroOrderHold pins the catch-up semantics: when one
// Observe call covers several elapsed periods, the back-filled sample
// points must read the previously observed power (zero-order hold), not
// smear the new reading backwards in time.
func TestSparseObserveZeroOrderHold(t *testing.T) {
	r := &Recorder{periodS: 1, rng: newTestRNG()} // noise-free instrument
	r.Observe(0, 100)
	// One sparse call 5 s later at a new level: sample points at t=1..4
	// lie before the new observation and must hold 100 W; the point at
	// t=5 coincides with it and reads 250 W.
	r.Observe(5, 250)
	want := []Sample{
		{0, 100}, {1, 100}, {2, 100}, {3, 100}, {4, 100}, {5, 250},
	}
	got := r.Samples()
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDenseObserveUnchanged pins bit-compatibility of the ZOH fix for the
// dense feed every flight uses (one call per physics step): every emitted
// sample must read the power passed in the very call that emitted it.
func TestDenseObserveUnchanged(t *testing.T) {
	r := &Recorder{periodS: 0.02, rng: newTestRNG()}
	// Level steps every 500 calls (0.5 s), far from any epsilon ambiguity:
	// a sample can only be emitted by a call within one step of its grid
	// point, and adjacent calls share the same level there.
	level := func(i int) float64 { return 100 + 10*float64(i/500) }
	for i := 0; i < 2000; i++ {
		r.Observe(float64(i)*0.001, level(i))
	}
	for k, s := range r.Samples() {
		if want := level(20 * k); s.PowerW != want {
			t.Fatalf("sample %d at t=%v = %v W, want %v (dense feed must not hold stale values)",
				k, s.TimeS, s.PowerW, want)
		}
	}
}
