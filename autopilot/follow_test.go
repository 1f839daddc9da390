package autopilot

import (
	"math"
	"testing"

	"dronedse/mathx"
)

func TestFollowMovingTarget(t *testing.T) {
	ap := newTestAP(t, 3)
	// A ground vehicle driving a straight line at 2 m/s.
	target := func(tm float64) mathx.Vec3 { return mathx.V3(2*tm, 5, 0) }

	if err := ap.Follow(FollowConfig{Target: target}); err == nil {
		t.Error("follow accepted while disarmed")
	}
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := ap.Follow(FollowConfig{Target: target, StandoffM: 4, AltitudeM: 4}); err != nil {
		t.Fatal(err)
	}
	if ap.Mode() != FollowMode {
		t.Fatalf("mode = %v", ap.Mode())
	}

	// Let the chase converge, then check the geometry over 10 s.
	runFor(ap, 15)
	var worstDist, worstYaw float64
	samples := 0
	ap.Observe(func(a *Autopilot, dt float64) {
		samples++
		if samples%100 != 0 {
			return
		}
		tgt := target(a.Time())
		p := a.Quad().State().Pos
		horiz := math.Hypot(p.X-tgt.X, p.Y-tgt.Y)
		if d := math.Abs(horiz - 4); d > worstDist {
			worstDist = d
		}
		// Camera bearing error.
		_, _, yaw := a.Quad().State().Att.Euler()
		want := math.Atan2(tgt.Y-p.Y, tgt.X-p.X)
		if d := math.Abs(wrap(yaw - want)); d > worstYaw {
			worstYaw = d
		}
	})
	runFor(ap, 10)
	if worstDist > 2.0 {
		t.Errorf("standoff error up to %.2f m while tracking", worstDist)
	}
	if worstYaw > 0.6 {
		t.Errorf("camera bearing error up to %.2f rad", worstYaw)
	}
	alt := ap.Quad().State().Pos.Z
	if math.Abs(alt-4) > 1 {
		t.Errorf("filming altitude = %.2f, want ~4", alt)
	}
}

func TestFollowValidation(t *testing.T) {
	ap := newTestAP(t, 3)
	ap.Arm()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := ap.Follow(FollowConfig{}); err == nil {
		t.Error("nil target provider accepted")
	}
	// Defaults applied.
	if err := ap.Follow(FollowConfig{Target: func(float64) mathx.Vec3 { return mathx.V3(0, 10, 0) }}); err != nil {
		t.Fatal(err)
	}
	if ap.follow.StandoffM != 4 || ap.follow.AltitudeM != 4 {
		t.Errorf("defaults = %+v", ap.follow)
	}
}

func wrap(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
