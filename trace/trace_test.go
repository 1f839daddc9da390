package trace

import (
	"math"
	"math/rand"
	"testing"
)

// newTestRNG backs a hand-built Recorder; with NoiseW zero the draws are
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
	r := NewUSBMeter(3)
	feedConstant(r, 0, 600, 4.0, 0.01)
	mean := r.MeanPower(0, 600)
	if math.Abs(mean-4.0) > 0.005 {
		t.Errorf("mean power = %v, want ~4.0", mean)
	}
	// Spread should reflect the ±10 mW instrument error.
	var sq float64
	for _, s := range r.Samples() {
		d := s.PowerW - 4.0
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(r.Samples())))
	if std < 0.005 || std > 0.02 {
		t.Errorf("noise std = %v, configured 0.010", std)
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
	empty := NewOscilloscope(6)
	if empty.EnergyWh() != 0 {
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
	r := &Recorder{PeriodS: 1, rng: newTestRNG()} // noise-free instrument
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
	r := &Recorder{PeriodS: 0.02, rng: newTestRNG()}
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

func TestReset(t *testing.T) {
	r := NewUSBMeter(8)
	feedConstant(r, 0, 5, 1, 0.01)
	r.Reset(8)
	if len(r.Samples()) != 0 {
		t.Error("Reset left samples")
	}
	feedConstant(r, 100, 105, 1, 0.01)
	if len(r.Samples()) == 0 {
		t.Error("recorder dead after Reset")
	}
}

// TestResetMatchesFresh pins the reuse contract: a recorder Reset to a seed
// records bit-identically to a new recorder from that seed, whatever it
// recorded before, and keeps its buffer.
func TestResetMatchesFresh(t *testing.T) {
	used := NewOscilloscope(1)
	feedConstant(used, 0, 30, 7, 0.001)
	capBefore := cap(used.Samples())
	used.Reset(9)
	fresh := NewOscilloscope(9)
	feedConstant(used, 2, 4, 3, 0.001)
	feedConstant(fresh, 2, 4, 3, 0.001)
	got, want := used.Samples(), fresh.Samples()
	if len(got) != len(want) {
		t.Fatalf("reset recorder took %d samples, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: reset %+v, fresh %+v", i, got[i], want[i])
		}
	}
	if cap(used.Samples()) != capBefore {
		t.Fatal("Reset dropped the sample buffer")
	}
}
