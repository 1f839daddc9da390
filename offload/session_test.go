package offload

import (
	"testing"

	"dronedse/slam"
)

// testStats returns a plausible SLAM ledger for session math.
func testStats() slam.Stats {
	return slam.Stats{FeatureExtractionOps: 40e6, MatchingOps: 20e6, LocalBAOps: 30e6, Frames: 100}
}

// windowProbe fails the link inside [from, to).
type windowProbe struct{ from, to float64 }

func (w windowProbe) LinkUp(t float64) bool { return t < w.from || t >= w.to }
func (w windowProbe) BandwidthScale(t float64) float64 {
	if w.LinkUp(t) {
		return 1
	}
	return 0
}

func newTestSession(t *testing.T, seed int64) *Session {
	t.Helper()
	s := new(Session)
	s.Init(SessionConfig{
		Link: WiFi5GHz(), Node: GroundStationGPU(), W: SLAMWorkload(),
		OnboardW: 2.0,
	}, testStats(), seed)
	return s
}

func TestSessionFallbackAndRecovery(t *testing.T) {
	s := newTestSession(t, 1)
	s.SetProbe(windowProbe{from: 2, to: 10})
	if !s.offloaded {
		t.Fatal("session must start offloaded")
	}
	radioW := WiFi5GHz().TxPowerW
	if got := s.AirborneW(); got != radioW {
		t.Fatalf("offloaded AirborneW = %v, want %v", got, radioW)
	}
	var fellBackAt, recoveredAt float64 = -1, -1
	for step := 0; step <= 3000; step++ {
		tm := float64(step) * 0.01 // 100 Hz polling for 30 s
		if s.Step(tm) {
			if !s.offloaded && fellBackAt < 0 {
				fellBackAt = tm
			}
			if s.offloaded && fellBackAt >= 0 {
				recoveredAt = tm
			}
		}
	}
	if fellBackAt < 2 || fellBackAt > 6 {
		t.Errorf("fallback at t=%.2f, want shortly after the outage at t=2", fellBackAt)
	}
	if recoveredAt < 15-1e-9 || recoveredAt > 20 {
		t.Errorf("recovery at t=%.2f, want ~5 s of healthy link after t=10", recoveredAt)
	}
	if s.Fallbacks != 1 || s.Recoveries != 1 {
		t.Errorf("fallbacks=%d recoveries=%d, want 1/1", s.Fallbacks, s.Recoveries)
	}
	if s.Failures == 0 || s.Attempts <= s.Failures {
		t.Errorf("attempts=%d failures=%d: retry accounting broken", s.Attempts, s.Failures)
	}
}

// TestSessionBackoffSpacing verifies failed attempts space out instead of
// hammering the dead link every poll.
func TestSessionBackoffSpacing(t *testing.T) {
	s := newTestSession(t, 2)
	s.SetProbe(windowProbe{from: 0, to: 1e9})
	for step := 0; step <= 1000; step++ {
		s.Step(float64(step) * 0.01) // 10 s of dead link at 100 Hz
	}
	// With 50 ms base doubling to a 2 s cap, 10 s admits far fewer than
	// the 1001 polls.
	if s.Attempts > 30 {
		t.Errorf("%d attempts in 10 s of dead link: backoff not applied", s.Attempts)
	}
	if s.offloaded {
		t.Error("session still offloaded after sustained link failure")
	}
}

func TestSessionDeterministic(t *testing.T) {
	run := func() (int, int, float64) {
		s := newTestSession(t, 7)
		s.SetProbe(windowProbe{from: 1, to: 4})
		last := 0.0
		for step := 0; step <= 2000; step++ {
			tm := float64(step) * 0.005
			if s.Step(tm) {
				last = tm
			}
		}
		return s.Attempts, s.Failures, last
	}
	a1, f1, l1 := run()
	a2, f2, l2 := run()
	if a1 != a2 || f1 != f2 || l1 != l2 {
		t.Errorf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", a1, f1, l1, a2, f2, l2)
	}
}
