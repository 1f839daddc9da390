package sim

import (
	"math"
	"math/rand"

	"dronedse/mathx"
)

// Environment models the unpredictable effects Table 1 assigns to the inner
// loop: steady wind, gusts, and atmospheric turbulence.
type Environment struct {
	// MeanWind is the steady wind vector (m/s, world frame).
	MeanWind mathx.Vec3
	// GustAmplitude scales sinusoidal gusts layered on the mean.
	GustAmplitude float64
	// GustPeriodS is the dominant gust period.
	GustPeriodS float64
	// TurbulenceStd is the standard deviation of the random turbulence
	// component (m/s).
	TurbulenceStd float64
	// GustOffset is an externally-injected wind step (m/s, world frame)
	// added on top of the modeled wind. Fault injectors drive it to apply
	// deterministic gust-step events; zero leaves the wind untouched.
	GustOffset mathx.Vec3

	rng  *rand.Rand
	turb mathx.Vec3
}

// WindyEnvironment returns a gusty test condition: steady wind with gusts
// and turbulence, used by the INDI-style disturbance tests (§2.1.3-D cites
// stabilization under powerful wind gusts at a 500 Hz loop). Zero wind and
// gust is calm air.
func WindyEnvironment(seed int64, meanMS, gustMS float64) *Environment {
	e := new(Environment)
	e.Init(seed, meanMS, gustMS)
	return e
}

// Init re-initialises e in place as WindyEnvironment(seed, meanMS, gustMS)
// would build it, reseeding its turbulence source rather than allocating a
// new one.
func (e *Environment) Init(seed int64, meanMS, gustMS float64) {
	*e = Environment{
		MeanWind:      mathx.V3(meanMS, 0, 0),
		GustAmplitude: gustMS,
		GustPeriodS:   7,
		TurbulenceStd: gustMS / 4,
		rng:           mathx.Reseed(e.rng, seed),
	}
}

// WindAt returns the wind vector at simulated time t. The turbulence term is
// a first-order random walk refreshed on each call, so callers should sample
// at a consistent rate (the simulator's Step does).
func (e *Environment) WindAt(t float64) mathx.Vec3 {
	w := e.MeanWind
	if e.GustAmplitude != 0 && e.GustPeriodS > 0 {
		phase := 2 * math.Pi * t / e.GustPeriodS
		w = w.Add(mathx.V3(
			e.GustAmplitude*math.Sin(phase),
			e.GustAmplitude*0.5*math.Sin(1.7*phase+1),
			e.GustAmplitude*0.2*math.Sin(2.3*phase+2)))
	}
	if e.TurbulenceStd > 0 {
		e.turb = e.turb.Scale(0.98).Add(mathx.V3(
			e.rng.NormFloat64(), e.rng.NormFloat64(), e.rng.NormFloat64()).
			Scale(e.TurbulenceStd * 0.2))
		w = w.Add(e.turb)
	}
	if e.GustOffset != (mathx.Vec3{}) {
		w = w.Add(e.GustOffset)
	}
	return w
}
