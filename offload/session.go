package offload

import (
	"math"
	"math/rand"

	"dronedse/mathx"
	"dronedse/slam"
)

// LinkProbe reports the instantaneous radio-link condition. Fault injectors
// (faultx.Injector) implement it; a nil probe means a healthy link at full
// bandwidth.
type LinkProbe interface {
	// LinkUp reports whether the link is usable at time t.
	LinkUp(t float64) bool
	// BandwidthScale returns the fraction of nominal bandwidth available
	// at time t in [0, 1].
	BandwidthScale(t float64) float64
}

// SessionConfig assembles a Session.
type SessionConfig struct {
	Link Link
	Node Node
	W    Workload
	// OnboardW is the on-board host's power draw while hosting the task
	// after a fallback (the §5.1 ~2 W SLAM increment on the RPi class).
	OnboardW float64
}

// The session's retry policy.
const (
	// maxRetries is the consecutive failed attempts tolerated before the
	// session falls back to onboard compute.
	maxRetries = 3
	// backoffBaseMS and backoffMaxMS bound the exponential retry backoff.
	backoffBaseMS = 50
	backoffMaxMS  = 2000
	// jitterFrac randomizes each backoff by ±frac so retry storms from
	// many vehicles decorrelate; the jitter source is seeded, keeping
	// campaigns reproducible.
	jitterFrac = 0.25
	// recoverAfterS is how long the link must stay healthy before the
	// session returns compute to the remote node.
	recoverAfterS = 5
)

// Session runs the offload loop with failure handling: each attempt either
// meets the outer-loop deadline or counts as a failure; failures retry with
// jittered exponential backoff, and sustained failure falls back to onboard
// compute — trading radio power for host power and flight time, which is
// exactly the tradeoff the design-space model prices.
type Session struct {
	cfg     SessionConfig
	baseRep Report
	probe   LinkProbe
	rng     *rand.Rand

	offloaded     bool
	consecFails   int
	nextAttemptAt float64
	healthySince  float64

	// Counters for the campaign table.
	Attempts   int
	Failures   int
	Fallbacks  int
	Recoveries int
}

// Init (re)initialises s in place as a session priced from the measured
// SLAM ledger st, which must pass ValidateLedger; the session starts
// offloaded. st supplies the per-frame remote compute time the same way
// Evaluate derives it. Init reseeds the jitter source from seed and installs
// no link probe.
func (s *Session) Init(cfg SessionConfig, st slam.Stats, seed int64) {
	*s = Session{
		cfg:          cfg,
		baseRep:      evaluate(cfg.Link, cfg.Node, cfg.W, st, cfg.OnboardW),
		rng:          mathx.Reseed(s.rng, seed),
		offloaded:    true,
		healthySince: -1,
	}
}

// SetProbe installs the link-condition source (nil means always healthy).
func (s *Session) SetProbe(p LinkProbe) { s.probe = p }

// AirborneW is the airborne power the task costs right now: radio transmit
// power while offloaded, the on-board host's burn after a fallback.
func (s *Session) AirborneW() float64 {
	if s.offloaded {
		return s.cfg.Link.TxPowerW
	}
	return s.cfg.OnboardW
}

// AttemptLatencyMS is the end-to-end result age at a given bandwidth scale.
func (s *Session) AttemptLatencyMS(scale float64) float64 {
	if scale <= 0 {
		return math.Inf(1)
	}
	return s.baseRep.UplinkMS/scale + s.baseRep.RTTHalfMS*2 +
		s.baseRep.ComputeMS + s.baseRep.DownlinkMS/scale
}

// Step advances the session's retry state machine at simulated time t
// (call it at the telemetry/outer-loop rate). It reports whether the
// compute placement changed this step (fallback or recovery).
func (s *Session) Step(t float64) bool {
	if t < s.nextAttemptAt {
		return false
	}
	s.Attempts++
	up, scale := true, 1.0
	if s.probe != nil {
		up = s.probe.LinkUp(t)
		scale = s.probe.BandwidthScale(t)
	}
	needMbps := s.cfg.W.UplinkKB * 1024 * 8 * s.cfg.W.FPS / 1e6
	ok := up && scale > 0 &&
		s.AttemptLatencyMS(scale) <= s.cfg.W.DeadlineMS &&
		needMbps <= s.cfg.Link.BandwidthMbps*scale*0.8
	if ok {
		s.consecFails = 0
		s.nextAttemptAt = t // attempt every step while healthy
		if !s.offloaded {
			if s.healthySince < 0 {
				s.healthySince = t
			}
			if t-s.healthySince >= recoverAfterS {
				s.offloaded = true
				s.Recoveries++
				s.healthySince = -1
				return true
			}
		}
		return false
	}
	s.Failures++
	s.consecFails++
	s.healthySince = -1
	backoff := backoffBaseMS * math.Pow(2, float64(s.consecFails-1))
	if backoff > backoffMaxMS {
		backoff = backoffMaxMS
	}
	backoff *= 1 + jitterFrac*(2*s.rng.Float64()-1)
	s.nextAttemptAt = t + backoff/1000
	if s.offloaded && s.consecFails >= maxRetries {
		s.offloaded = false
		s.Fallbacks++
		return true
	}
	return false
}
