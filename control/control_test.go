package control

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/sim"
)

func TestPIDProportional(t *testing.T) {
	c := PID{Kp: 2}
	if got := c.Update(3, 0.01); math.Abs(got-6) > 1e-12 {
		t.Errorf("P-only output = %v, want 6", got)
	}
}

func TestPIDIntegralAccumulatesAndClamps(t *testing.T) {
	c := PID{Ki: 1, IntegralLimit: 0.5}
	var out float64
	for i := 0; i < 1000; i++ {
		out = c.Update(1, 0.01)
	}
	if math.Abs(out-0.5) > 1e-9 {
		t.Errorf("integral output = %v, want clamped 0.5", out)
	}
}

func TestPIDDerivativeFiltering(t *testing.T) {
	raw := PID{Kd: 1, DerivativeLPF: 1}
	filt := PID{Kd: 1, DerivativeLPF: 0.1}
	raw.Update(0, 0.01)
	filt.Update(0, 0.01)
	r := raw.Update(1, 0.01) // derivative = 100
	f := filt.Update(1, 0.01)
	if r <= f {
		t.Errorf("filtered derivative %v not below raw %v", f, r)
	}
	if f <= 0 {
		t.Errorf("filtered derivative %v should still respond", f)
	}
}

func TestPIDOutputLimit(t *testing.T) {
	c := PID{Kp: 100, OutputLimit: 2}
	if got := c.Update(10, 0.01); got != 2 {
		t.Errorf("limited output = %v, want 2", got)
	}
	if got := c.Update(-10, 0.01); got != -2 {
		t.Errorf("limited output = %v, want -2", got)
	}
}

func TestPIDZeroDt(t *testing.T) {
	c := PID{Kp: 1, Ki: 100, Kd: 100}
	if got := c.Update(2, 0); math.Abs(got-2) > 1e-12 {
		t.Errorf("zero-dt output = %v, want P term only", got)
	}
}

func TestVec3PID(t *testing.T) {
	v := NewVec3PID(PID{Kp: 2})
	out := v.Update(mathx.V3(1, 2, 3), 0.01)
	if out != mathx.V3(2, 4, 6) {
		t.Errorf("Vec3PID output = %v", out)
	}
}

func TestHoverHold(t *testing.T) {
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(q, DefaultRates())
	q.Teleport(mathx.V3(0, 0, 5))
	l.Run(Targets{Position: mathx.V3(0, 0, 5)}, 10, nil)
	s := q.State()
	if s.Pos.Sub(mathx.V3(0, 0, 5)).Norm() > 0.2 {
		t.Errorf("hover drifted to %v", s.Pos)
	}
	if s.Vel.Norm() > 0.1 {
		t.Errorf("hover residual velocity %v", s.Vel)
	}
}

func TestTakeoffFromGround(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	l := NewLoop(q, DefaultRates())
	l.Run(Targets{Position: mathx.V3(0, 0, 5)}, 10, nil)
	if math.Abs(q.State().Pos.Z-5) > 0.3 {
		t.Errorf("takeoff reached %v, want z=5", q.State().Pos)
	}
}

func TestWaypointTranslation(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	l := NewLoop(q, DefaultRates())
	q.Teleport(mathx.V3(0, 0, 5))
	l.Run(Targets{Position: mathx.V3(0, 0, 5)}, 2, nil)
	l.Run(Targets{Position: mathx.V3(15, -8, 9)}, 15, nil)
	s := q.State()
	if s.Pos.Sub(mathx.V3(15, -8, 9)).Norm() > 0.5 {
		t.Errorf("translation ended at %v", s.Pos)
	}
}

func TestYawTracking(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	l := NewLoop(q, DefaultRates())
	q.Teleport(mathx.V3(0, 0, 5))
	l.Run(Targets{Position: mathx.V3(0, 0, 5), Yaw: 1.2}, 8, nil)
	_, _, yaw := q.State().Att.Euler()
	if math.Abs(yaw-1.2) > 0.1 {
		t.Errorf("yaw = %v, want 1.2", yaw)
	}
}

func TestTiltLimitRespected(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	l := NewLoop(q, DefaultRates())
	q.Teleport(mathx.V3(0, 0, 20))
	maxTilt := 0.0
	// An aggressive 100 m step tempts the controller to pitch hard.
	l.Run(Targets{Position: mathx.V3(100, 0, 20)}, 6, func(_ float64, s sim.State) {
		z := s.Att.Rotate(mathx.V3(0, 0, 1))
		tilt := math.Acos(mathx.Clamp(z.Z, -1, 1))
		if tilt > maxTilt {
			maxTilt = tilt
		}
	})
	limit := l.C.MaxTiltRad
	if maxTilt > limit+0.12 {
		t.Errorf("max tilt %.2f rad exceeded the angle-of-attack limit %.2f (Table 3)", maxTilt, limit)
	}
	if maxTilt < 0.15 {
		t.Errorf("aggressive step produced almost no tilt (%.2f rad); controller inactive?", maxTilt)
	}
}

func TestMixerRecoversCommands(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	c := NewCascade(q)
	totalN := 10.0
	tau := mathx.V3(0.05, -0.08, 0.01)
	th := c.Mix(totalN, tau)
	l := c.armM
	ct := c.torquePerN
	sum := th[0] + th[1] + th[2] + th[3]
	gotTauX := l * (th[sim.FrontLeft] - th[sim.FrontRight] + th[sim.BackLeft] - th[sim.BackRight])
	gotTauY := -l * (th[sim.FrontLeft] + th[sim.FrontRight] - th[sim.BackLeft] - th[sim.BackRight])
	gotTauZ := ct * (th[sim.FrontLeft] - th[sim.FrontRight] - th[sim.BackLeft] + th[sim.BackRight])
	if math.Abs(sum-totalN) > 1e-9 {
		t.Errorf("mixer collective = %v, want %v", sum, totalN)
	}
	if math.Abs(gotTauX-tau.X) > 1e-9 || math.Abs(gotTauY-tau.Y) > 1e-9 || math.Abs(gotTauZ-tau.Z) > 1e-9 {
		t.Errorf("mixer torques = (%v,%v,%v), want %v", gotTauX, gotTauY, gotTauZ, tau)
	}
}

func TestMixerSaturation(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	c := NewCascade(q)
	th := c.Mix(1e6, mathx.V3(1e6, 0, 0))
	for i, v := range th {
		if v < 0 || v > c.MaxThrustN+1e-9 {
			t.Errorf("motor %d thrust %v outside [0, %v]", i, v, c.MaxThrustN)
		}
	}
}

// TestInnerLoopPhysicsLimited is the §2.1.3-D experiment: above ~50-200 Hz,
// raising the inner-loop rate no longer improves the response time — it is
// limited by rotor lag and inertia, not compute.
func TestInnerLoopPhysicsLimited(t *testing.T) {
	cfg := sim.DefaultConfig()
	resp := func(hz float64) float64 {
		r := Rates{PositionHz: 40, AttitudeHz: math.Min(hz, 200), RateHz: hz}
		return StepResponse(cfg, r, 5, 20)
	}
	r200 := resp(200)
	r1000 := resp(1000)
	r2000 := resp(2000)
	if r200 < 0 || r1000 < 0 || r2000 < 0 {
		t.Fatalf("loop failed to settle: %v %v %v", r200, r1000, r2000)
	}
	// Doubling compute (1 kHz -> 2 kHz) must buy essentially nothing.
	if math.Abs(r2000-r1000) > 0.15*r1000 {
		t.Errorf("2 kHz response %v differs from 1 kHz %v by >15%%; should be physics-limited", r2000, r1000)
	}
	// And 200 Hz is already within 20% of the 1 kHz response.
	if r200 > r1000*1.2 {
		t.Errorf("200 Hz response %v much worse than 1 kHz %v; paper says 50-500 Hz suffices", r200, r1000)
	}
}

func TestStepResponseDegradesAtVeryLowRate(t *testing.T) {
	cfg := sim.DefaultConfig()
	// At 6 Hz everything is under-sampled; the response degrades badly or
	// never settles. (25-50 Hz already matches 1 kHz — the low end of the
	// paper's 50-500 Hz band.)
	slow := StepResponse(cfg, Rates{PositionHz: 6, AttitudeHz: 6, RateHz: 6}, 5, 25)
	fast := StepResponse(cfg, Rates{PositionHz: 40, AttitudeHz: 200, RateHz: 1000}, 5, 25)
	if fast < 0 {
		t.Fatal("reference loop failed to settle")
	}
	if slow > 0 && slow < 1.5*fast {
		t.Errorf("6 Hz loop (%v s) not clearly worse than the 1 kHz loop (%v s)", slow, fast)
	}
}

func TestHoverUnderWind(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	q.SetEnvironment(sim.WindyEnvironment(3, 4, 2))
	l := NewLoop(q, DefaultRates())
	q.Teleport(mathx.V3(0, 0, 10))
	worst := 0.0
	l.Run(Targets{Position: mathx.V3(0, 0, 10)}, 20, func(_ float64, s sim.State) {
		if d := s.Pos.Sub(mathx.V3(0, 0, 10)).Norm(); d > worst {
			worst = d
		}
	})
	// Table 1: wind gusts are an inner-loop stabilization duty; the
	// integral term must hold position within ~2 m under 4 m/s wind.
	if worst > 2.0 {
		t.Errorf("worst position error under wind = %v m", worst)
	}
}
