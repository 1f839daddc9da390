package offload

import (
	"math"
	"math/rand"

	"dronedse/core"
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
	// OnboardG is the on-board host's weight (grams), used when the
	// session re-enters the design-space model to price the fallback.
	OnboardG float64
	// MaxRetries is the consecutive failed attempts tolerated before the
	// session falls back to onboard compute (default 3).
	MaxRetries int
	// BackoffBaseMS and BackoffMaxMS bound the exponential retry backoff
	// (defaults 50 ms and 2000 ms).
	BackoffBaseMS float64
	BackoffMaxMS  float64
	// JitterFrac randomizes each backoff by ±frac (default 0.25) so
	// retry storms from many vehicles decorrelate; the jitter source is
	// seeded, keeping campaigns reproducible.
	JitterFrac float64
	// RecoverAfterS is how long the link must stay healthy before the
	// session returns compute to the remote node (default 5 s).
	RecoverAfterS float64
	Seed          int64
}

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

// NewSession builds a session from the measured SLAM ledger; the session
// starts offloaded. st supplies the per-frame remote compute time the same
// way Evaluate derives it.
func NewSession(cfg SessionConfig, st slam.Stats) (*Session, error) {
	if err := ValidateLedger(st); err != nil {
		return nil, err
	}
	s := new(Session)
	s.Init(cfg, st)
	return s, nil
}

// Init re-initialises s in place as NewSession(cfg, st) would build it from
// a ledger that passes ValidateLedger, reseeding its jitter source; no link
// probe is installed.
func (s *Session) Init(cfg SessionConfig, st slam.Stats) {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BackoffBaseMS <= 0 {
		cfg.BackoffBaseMS = 50
	}
	if cfg.BackoffMaxMS <= 0 {
		cfg.BackoffMaxMS = 2000
	}
	if cfg.JitterFrac <= 0 {
		cfg.JitterFrac = 0.25
	}
	if cfg.RecoverAfterS <= 0 {
		cfg.RecoverAfterS = 5
	}
	*s = Session{
		cfg:          cfg,
		baseRep:      evaluate(cfg.Link, cfg.Node, cfg.W, st, cfg.OnboardW),
		rng:          mathx.Reseed(s.rng, cfg.Seed),
		offloaded:    true,
		healthySince: -1,
	}
}

// SetProbe installs the link-condition source (nil means always healthy).
func (s *Session) SetProbe(p LinkProbe) { s.probe = p }

// Offloaded reports whether compute currently runs on the remote node.
func (s *Session) Offloaded() bool { return s.offloaded }

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
			if t-s.healthySince >= s.cfg.RecoverAfterS {
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
	backoff := s.cfg.BackoffBaseMS * math.Pow(2, float64(s.consecFails-1))
	if backoff > s.cfg.BackoffMaxMS {
		backoff = s.cfg.BackoffMaxMS
	}
	backoff *= 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
	s.nextAttemptAt = t + backoff/1000
	if s.offloaded && s.consecFails >= s.cfg.MaxRetries {
		s.offloaded = false
		s.Fallbacks++
		return true
	}
	return false
}

// FallbackCostMin re-enters the design-space model (Equation 7): the
// flight-time cost, in minutes, of hosting the task onboard (host power +
// host weight) instead of streaming it over the radio (transmit power,
// negligible weight — the telemetry radio is already aboard). Positive
// means the fallback shortens the flight.
func FallbackCostMin(base core.Design, onboardW, onboardG, radioW, load float64) (float64, error) {
	onboardGain, err := core.GainedFlightTimeMin(base, onboardW, onboardG, load)
	if err != nil {
		return 0, err
	}
	radioGain, err := core.GainedFlightTimeMin(base, radioW, 0, load)
	if err != nil {
		return 0, err
	}
	return radioGain - onboardGain, nil
}

// FallbackCostMin prices this session's configured fallback against a
// resolved base design at the given flying load.
func (s *Session) FallbackCostMin(base core.Design, load float64) (float64, error) {
	return FallbackCostMin(base, s.cfg.OnboardW, s.cfg.OnboardG, s.cfg.Link.TxPowerW, load)
}
