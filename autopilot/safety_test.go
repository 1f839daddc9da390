package autopilot

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/power"
	"dronedse/sim"
)

func TestEnergyPolicyBringsItHome(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	// Small pack: enough to get out but the reserve must turn it around.
	pack := new(power.Pack)
	pack.Init(3, 260, 80)
	ap := new(Autopilot)
	ap.Init(Config{Quad: q, Battery: pack, ComputeW: 5, TakeoffAltM: 5, EnergyPolicy: true, Seed: 6})
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := ap.LoadMission(MissionPlan{{Pos: mathx.V3(200, 0, 5)}}); err != nil {
		t.Fatal(err)
	}
	if err := ap.StartMission(); err != nil {
		t.Fatal(err)
	}
	sawEnergyRTL := false
	ap.runUntil(func(a *Autopilot) bool {
		if a.LastEvent() == "energy reserve reached: RTL" {
			sawEnergyRTL = true
		}
		return a.Mode() == Disarmed
	}, 300)
	if !sawEnergyRTL {
		t.Fatal("energy policy never triggered RTL")
	}
	// It must actually make it back before the hard drain failsafe.
	if d := math.Hypot(ap.Quad().State().Pos.X, ap.Quad().State().Pos.Y); d > 8 {
		t.Errorf("landed %v m from home; energy reserve was insufficient", d)
	}
}

func TestEnduranceEstimates(t *testing.T) {
	ap := newTestAP(t, 5)
	ap.Arm()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	runFor(ap, 5)
	// The remaining flight time at the recent average power. 3000 mAh 3S
	// at ~110 W: ~14-20 min.
	e := ap.RemainingEnergyWh() / ap.avgPowerW * 60
	if e < 8 || e > 30 {
		t.Errorf("endurance estimate = %.1f min, implausible", e)
	}
	ret := ap.EstimatedReturnEnergyWh()
	if ret <= 0 || ret > 1 {
		t.Errorf("return energy from hover near home = %v Wh", ret)
	}
	if ap.RemainingEnergyWh() <= 0 {
		t.Error("remaining energy must be positive after a short hover")
	}
}

func TestNoBatteryEndurance(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap := new(Autopilot)
	ap.Init(Config{Quad: q, Seed: 1})
	if !math.IsInf(ap.RemainingEnergyWh(), 1) {
		t.Error("battery-less drone should report infinite energy")
	}
}
