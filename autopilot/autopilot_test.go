package autopilot

import (
	"math"
	"testing"

	"dronedse/control"
	"dronedse/mathx"
	"dronedse/power"
	"dronedse/sim"
)

// runFor steps the autopilot for the given simulated duration.
func runFor(a *Autopilot, seconds float64) {
	for range int(seconds * a.physicsHz) {
		a.Step()
	}
}

// runUntil steps the autopilot until cond holds after a step, for at most
// int(seconds*hz) steps, and reports whether cond held.
func (a *Autopilot) runUntil(cond func(*Autopilot) bool, seconds float64) bool {
	for range int(seconds * a.physicsHz) {
		a.Step()
		if cond(a) {
			return true
		}
	}
	return cond(a)
}

func newTestAP(t *testing.T, computeW float64) *Autopilot {
	t.Helper()
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pack := new(power.Pack)
	pack.Init(3, 3000, 30)
	ap := new(Autopilot)
	ap.Init(Config{Quad: q, Battery: pack, ComputeW: computeW, TakeoffAltM: 5, Seed: 1})
	return ap
}

func TestArmOnlyFromDisarmed(t *testing.T) {
	ap := newTestAP(t, 3)
	if err := ap.Arm(); err != nil {
		t.Fatalf("first arm failed: %v", err)
	}
	if err := ap.Arm(); err == nil {
		t.Error("double arm accepted")
	}
}

func TestTakeoffReachesAltitude(t *testing.T) {
	ap := newTestAP(t, 3)
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	if !ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30) {
		t.Fatalf("never reached HOVER; mode=%v alt=%v", ap.Mode(), ap.Quad().State().Pos.Z)
	}
	if z := ap.Quad().State().Pos.Z; math.Abs(z-5) > 1 {
		t.Errorf("hover altitude = %v, want ~5", z)
	}
}

func TestMissionLifecycle(t *testing.T) {
	ap := newTestAP(t, 3)
	if err := ap.LoadMission(nil); err == nil {
		t.Error("empty mission accepted")
	}
	if err := ap.LoadMission(MissionPlan{{Pos: mathx.V3(1, 1, -2)}}); err == nil {
		t.Error("underground waypoint accepted")
	}
	m := MissionPlan{
		{Pos: mathx.V3(8, 0, 5), HoldS: 0.5},
		{Pos: mathx.V3(8, 8, 7), HoldS: 0.5},
	}
	if err := ap.LoadMission(m); err != nil {
		t.Fatal(err)
	}
	if err := ap.StartMission(); err == nil {
		t.Error("mission started while disarmed")
	}
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := ap.StartMission(); err != nil {
		t.Fatal(err)
	}
	visited := false
	ok := ap.runUntil(func(a *Autopilot) bool {
		if a.Quad().State().Pos.Sub(m[1].Pos).Norm() < 1 {
			visited = true
		}
		return a.Mode() == Disarmed
	}, 240)
	if !ok {
		t.Fatalf("mission never completed; mode=%v pos=%v", ap.Mode(), ap.Quad().State().Pos)
	}
	if !visited {
		t.Error("second waypoint never visited")
	}
	// RTL landed near home (GPS-noise-limited: ~0.8 m fixes and no
	// precision-landing aid bound the accuracy to a few meters).
	if d := ap.Quad().State().Pos.Sub(mathx.Vec3{}).Norm(); d > 4 {
		t.Errorf("landed %v m from home", d)
	}
}

func TestBatteryFailsafe(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	// Absurdly small pack: drains mid-hover.
	pack := new(power.Pack)
	pack.Init(3, 40, 80)
	ap := new(Autopilot)
	ap.Init(Config{Quad: q, Battery: pack, ComputeW: 5, TakeoffAltM: 5, Seed: 2})
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	sawFailsafe := false
	ok := ap.runUntil(func(a *Autopilot) bool {
		if a.Mode() == Failsafe {
			sawFailsafe = true
		}
		return sawFailsafe && a.Mode() == Disarmed
	}, 120)
	if !sawFailsafe {
		t.Fatal("battery drain never triggered FAILSAFE")
	}
	if !ok {
		t.Fatal("failsafe never landed and disarmed")
	}
	if !q.OnGround() {
		t.Error("not on ground after failsafe landing")
	}
}

func TestArmRejectedWithDrainedBattery(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	pack := new(power.Pack)
	pack.Init(3, 100, 80)
	for !pack.Drained() {
		pack.Draw(50, 10)
	}
	ap := new(Autopilot)
	ap.Init(Config{Quad: q, Battery: pack, Seed: 3})
	if err := ap.Arm(); err == nil {
		t.Error("armed with drained battery")
	}
}

func TestComputePowerAccounting(t *testing.T) {
	ap := newTestAP(t, 3.39) // paper: RPi running autopilot alone
	base := ap.TotalPowerW()
	ap.SetComputeW(4.56) // paper: autopilot + active SLAM
	if math.Abs((ap.TotalPowerW()-base)-(4.56-3.39)) > 1e-9 {
		t.Errorf("compute power change not reflected: %v -> %v", base, ap.TotalPowerW())
	}
}

// TestMidFlightReconfiguration changes the compute draw and the yaw set
// point while hovering and checks both take effect at the next tick.
func TestMidFlightReconfiguration(t *testing.T) {
	ap := newTestAP(t, 3)
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)

	before := ap.TotalPowerW()
	ap.SetComputeW(ap.ComputeW() + 10)
	if ap.TotalPowerW()-before < 9.9 {
		t.Errorf("compute power change not live: %v -> %v", before, ap.TotalPowerW())
	}

	ap.yawTarget = 1.0
	runFor(ap, 6)
	_, _, yaw := ap.Quad().State().Att.Euler()
	if math.Abs(yaw-1.0) > 0.15 {
		t.Errorf("yaw after mid-flight retarget = %v, want ~1.0", yaw)
	}
}

// TestInnerOuterSeparation verifies the §2.1.3-A property: outer-loop
// (mission) decisions happen at a far lower rate than inner-loop actuation,
// and the flight still works with the outer loop decimated to 10 Hz.
func TestInnerOuterSeparation(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	pack := new(power.Pack)
	pack.Init(3, 3000, 30)
	ap := new(Autopilot)
	ap.Init(Config{
		Quad: q, Battery: pack, TakeoffAltM: 5, Seed: 4,
		Rates: control.Rates{PositionHz: 10, AttitudeHz: 200, RateHz: 1000},
	})
	ap.Arm()
	if !ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 40) {
		t.Fatal("10 Hz outer loop failed to take off — outer loop must tolerate relaxed deadlines")
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		Disarmed: "DISARMED", Takeoff: "TAKEOFF", Mission: "MISSION",
		Hover: "HOVER", Land: "LAND", ReturnToLaunch: "RTL", Failsafe: "FAILSAFE",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Mode(42).String() != "MODE(42)" {
		t.Error("unknown mode string wrong")
	}
}

func TestEstimatedStateSanity(t *testing.T) {
	ap := newTestAP(t, 3)
	ap.Arm()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	runFor(ap, 3)
	est := ap.EstimatedState()
	truth := ap.Quad().State()
	if est.Pos.Sub(truth.Pos).Norm() > 1.5 {
		t.Errorf("estimate %v far from truth %v", est.Pos, truth.Pos)
	}
}

// TestLoopStridesMatchStepModulo pins the per-loop stride counters to the
// step-count modulo they replaced: for loop rates that do and do not divide
// the physics rate, the cascade's update counts (CtrlStats) equal the number
// of steps s with s % every == 0 taken while armed, where every is the loop
// period rounded to whole physics steps.
func TestLoopStridesMatchStepModulo(t *testing.T) {
	for _, r := range []control.Rates{
		{PositionHz: 6, AttitudeHz: 6, RateHz: 6},
		{PositionHz: 40, AttitudeHz: 200, RateHz: 500},
		{PositionHz: 7, AttitudeHz: 333, RateHz: 997},
		{PositionHz: 40, AttitudeHz: 200, RateHz: 1500},
		control.DefaultRates(),
	} {
		q, _ := sim.NewQuad(sim.DefaultConfig())
		pack := new(power.Pack)
		pack.Init(3, 3000, 30)
		ap := new(Autopilot)
		ap.Init(Config{Quad: q, Battery: pack, TakeoffAltM: 5, Seed: 2, Rates: r})
		every := func(hz float64) int {
			n := int(ap.PhysicsHz()/hz + 0.5)
			if n < 1 {
				n = 1
			}
			return n
		}
		posEvery, attEvery, rateEvery := every(r.PositionHz), every(r.AttitudeHz), every(r.RateHz)
		// armed[s] is whether step s began armed: the mode a step ends in is
		// the mode the next one starts in.
		armed := []bool{false}
		ap.Observe(func(a *Autopilot, _ float64) { armed = append(armed, a.Mode() != Disarmed) })
		runFor(ap, 0.137)
		if err := ap.Arm(); err != nil {
			t.Fatal(err)
		}
		armed[len(armed)-1] = true
		runFor(ap, 6)
		var want control.CtrlStats
		for s, on := range armed[:len(armed)-1] {
			if !on {
				continue
			}
			if s%posEvery == 0 {
				want.PositionUpdates++
			}
			if s%attEvery == 0 {
				want.AttitudeUpdates++
			}
			if s%rateEvery == 0 {
				want.RateUpdates++
			}
		}
		got := ap.Cascade().Stats
		if got.PositionUpdates != want.PositionUpdates || got.AttitudeUpdates != want.AttitudeUpdates ||
			got.RateUpdates != want.RateUpdates {
			t.Errorf("rates %+v: updates pos/att/rate = %d/%d/%d, step modulo gives %d/%d/%d", r,
				got.PositionUpdates, got.AttitudeUpdates, got.RateUpdates,
				want.PositionUpdates, want.AttitudeUpdates, want.RateUpdates)
		}
	}
}
