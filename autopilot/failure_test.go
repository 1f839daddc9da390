package autopilot

import (
	"strings"
	"testing"

	"dronedse/mathx"
	"dronedse/sim"
)

// TestMotorFailureCrashCheck injects a motor failure mid-hover: the quad
// flips (a bare quadrotor cannot survive a dead motor), the crash check
// fires, and the autopilot disarms instead of fighting physics.
func TestMotorFailureCrashCheck(t *testing.T) {
	ap := newTestAP(t, 3)
	var log FlightLog
	ap.AttachFlightLog(&log)
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	if !ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30) {
		t.Fatal("takeoff failed")
	}
	runFor(ap, 2)

	ap.Quad().SetMotorEfficiency(sim.FrontLeft, 0)
	if ap.Quad().MotorEfficiency(sim.FrontLeft) != 0 {
		t.Fatal("failure injection not recorded")
	}
	disarmed := ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Disarmed }, 20)
	if !disarmed {
		t.Fatalf("crash check never disarmed; mode=%v", ap.Mode())
	}
	if ap.LastEvent() != "crash detected: disarm" {
		t.Errorf("LastEvent = %q", ap.LastEvent())
	}
	// The event made it into the flight log.
	found := false
	for _, e := range log.Events() {
		if strings.Contains(e.Text, "crash detected") {
			found = true
		}
	}
	if !found {
		t.Error("crash event missing from flight log")
	}
}

func TestMotorRepair(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	q.SetMotorEfficiency(sim.BackRight, 0)
	if q.MotorEfficiency(sim.BackRight) != 0 {
		t.Fatal("failure injection not recorded")
	}
	q.SetMotorEfficiency(sim.BackRight, 1)
	if q.MotorEfficiency(sim.BackRight) != 1 {
		t.Error("repair did not clear the failure")
	}
	// Out-of-range indices are ignored: no motor is touched, and they read
	// as no thrust.
	q.SetMotorEfficiency(-1, 0)
	q.SetMotorEfficiency(99, 0)
	for i := 0; i < sim.NumMotors; i++ {
		if q.MotorEfficiency(i) != 1 {
			t.Errorf("out-of-range failure reached motor %d", i)
		}
	}
	if q.MotorEfficiency(-1) != 0 || q.MotorEfficiency(99) != 0 {
		t.Error("out-of-range motor reported thrust")
	}
}

func TestCrashCheckDoesNotFireInNormalFlight(t *testing.T) {
	ap := newTestAP(t, 3)
	ap.Arm()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	ap.LoadMission(MissionPlan{{Pos: mathx.V3(10, 0, 5)}})
	ap.StartMission()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Disarmed }, 180)
	if strings.Contains(ap.LastEvent(), "crash") {
		t.Errorf("crash check fired during a normal mission: %q", ap.LastEvent())
	}
}

func TestFlightLogRecords(t *testing.T) {
	ap := newTestAP(t, 3)
	log := FlightLog{PeriodS: 0.05}
	ap.AttachFlightLog(&log)
	ap.Arm()
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	runFor(ap, 5)

	if n := log.entries.Len(); n < 100 {
		t.Fatalf("only %d log entries", n)
	}
	if log.MaxAltitude() < 4 {
		t.Errorf("max altitude = %v", log.MaxAltitude())
	}
	if log.EnergyWh() <= 0 {
		t.Error("no energy integrated")
	}
	hover := 0.0 // seconds spent in Hover
	for i := 1; i < log.entries.Len(); i++ {
		if b := log.entries.At(i); b.Mode == Hover {
			hover += b.TimeS - log.entries.At(i-1).TimeS
		}
	}
	if hover <= 3 {
		t.Errorf("hover time = %v", hover)
	}
	// Mode transitions recorded: DISARMED->TAKEOFF->HOVER.
	if len(log.Events()) < 2 {
		t.Fatalf("events = %v", log.Events())
	}
	var sb strings.Builder
	if err := log.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.HasPrefix(csv, "time_s,mode,") || !strings.Contains(csv, "HOVER") {
		t.Error("CSV malformed")
	}
	if !strings.Contains(log.Summary(), "max alt") {
		t.Errorf("summary = %q", log.Summary())
	}
	empty := FlightLog{}
	if empty.Summary() != "flight log: empty" {
		t.Error("empty summary wrong")
	}
}
