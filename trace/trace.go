// Package trace emulates the paper's two power instruments (§5): the USB
// digital multimeter sampling the RPi every half second at ±10 mW, and the
// digital oscilloscope sampling the whole drone's battery every 20 ms at
// ±0.5 mW. Recorders attach to any power source and produce the Figure 16
// time series, with phase annotations.
package trace

import (
	"math"
	"math/rand"

	"dronedse/mathx"
)

// Sample is one instrument reading.
type Sample struct {
	TimeS  float64
	PowerW float64
}

// Recorder samples a power signal at a fixed rate with instrument noise.
// Build one with NewUSBMeter or NewOscilloscope; the zero value has no
// noise source and no sampling period, so Observe panics on it.
type Recorder struct {
	periodS float64 // sampling interval
	noiseW  float64 // 1-sigma instrument error in watts

	rng       *rand.Rand
	samples   []Sample
	nextT     float64
	lastPower float64
	started   bool
}

// NewUSBMeter matches the paper's RPi instrument: 0.5 s period, ±10 mW.
func NewUSBMeter(seed int64) *Recorder { return newRecorder(0.5, 0.010, seed) }

// NewOscilloscope matches the paper's whole-drone instrument: 20 ms period,
// ±0.5 mW.
func NewOscilloscope(seed int64) *Recorder { return newRecorder(0.020, 0.0005, seed) }

func newRecorder(periodS, noiseW float64, seed int64) *Recorder {
	return &Recorder{periodS: periodS, noiseW: noiseW, rng: rand.New(mathx.NewSource(seed))}
}

// Observe feeds the recorder the instantaneous power at simulated time t;
// the recorder stores a sample whenever its period elapses. When a single
// call covers several elapsed periods (a sparse feed), the instrument
// behaves as a zero-order hold: catch-up sample points strictly before t
// read the previously observed power, and only the point reached at t reads
// the new value. A dense feed (one call per period or faster) is unaffected.
func (r *Recorder) Observe(t, powerW float64) {
	if !r.started {
		if r.rng == nil {
			panic("trace: Observe on a Recorder not built by NewUSBMeter or NewOscilloscope")
		}
		r.nextT = t
		r.lastPower = powerW
		r.started = true
	}
	for t >= r.nextT-1e-12 {
		v := powerW
		if r.nextT < t-1e-12 { // back-filled point: hold the prior reading
			v = r.lastPower
		}
		r.samples = append(r.samples, Sample{
			TimeS:  r.nextT,
			PowerW: v + r.rng.NormFloat64()*r.noiseW,
		})
		r.nextT += r.periodS
	}
	r.lastPower = powerW
}

// Samples returns the recorded series.
func (r *Recorder) Samples() []Sample { return r.samples }

// MeanPower returns the average recorded power over [fromS, toS).
func (r *Recorder) MeanPower(fromS, toS float64) float64 {
	sum, n := 0.0, 0
	for _, s := range r.samples {
		if s.TimeS >= fromS && s.TimeS < toS {
			sum += s.PowerW
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PeakPower returns the maximum recorded power over [fromS, toS).
func (r *Recorder) PeakPower(fromS, toS float64) float64 {
	peak := math.Inf(-1)
	for _, s := range r.samples {
		if s.TimeS >= fromS && s.TimeS < toS && s.PowerW > peak {
			peak = s.PowerW
		}
	}
	if math.IsInf(peak, -1) {
		return 0
	}
	return peak
}

// EnergyWh integrates the recording into watt-hours (the oscilloscope's
// multiply-and-log energy measurement of §A.6).
func (r *Recorder) EnergyWh() float64 {
	if len(r.samples) < 2 {
		return 0
	}
	wh := 0.0
	for i := 1; i < len(r.samples); i++ {
		dt := r.samples[i].TimeS - r.samples[i-1].TimeS
		wh += (r.samples[i].PowerW + r.samples[i-1].PowerW) / 2 * dt / 3600
	}
	return wh
}

// Phase annotates a span of a recording (the Figure 16 color bands).
type Phase struct {
	Name  string
	FromS float64
	ToS   float64
}

// PhaseMeans summarizes a recording by phase.
func PhaseMeans(r *Recorder, phases []Phase) map[string]float64 {
	out := make(map[string]float64, len(phases))
	for _, p := range phases {
		out[p.Name] = r.MeanPower(p.FromS, p.ToS)
	}
	return out
}
