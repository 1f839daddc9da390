package groundstation

import (
	"math"
	"testing"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/mavlink"
	"dronedse/power"
	"dronedse/sim"
)

// fly steps the autopilot for the given simulated duration.
func fly(ap *autopilot.Autopilot, seconds float64) {
	for range int(seconds * ap.PhysicsHz()) {
		ap.Step()
	}
}

// runUntil steps the autopilot until cond holds after a step, for at most
// int(seconds*hz) steps, and reports whether cond held.
func runUntil(ap *autopilot.Autopilot, cond func(*autopilot.Autopilot) bool, seconds float64) bool {
	for range int(seconds * ap.PhysicsHz()) {
		ap.Step()
		if cond(ap) {
			return true
		}
	}
	return cond(ap)
}

func TestConsumeTelemetry(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	pack := new(power.Pack)
	pack.Init(3, 3000, 30)
	ap := new(autopilot.Autopilot)
	ap.Init(autopilot.Config{Quad: q, Battery: pack, ComputeW: 4, Seed: 1})
	ap.Arm()
	fly(ap, 2)

	var seq uint8
	raw, err := ap.AppendTelemetry(nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	gs := New()
	gs.Consume(raw)
	st := gs.State()
	if st.Heartbeats != 1 {
		t.Errorf("heartbeats = %d", st.Heartbeats)
	}
	if !st.Armed {
		t.Error("armed flag lost")
	}
	if st.Frames < 4 {
		t.Errorf("frames = %d, want heartbeat+attitude+position+battery", st.Frames)
	}
	if st.BatterySoC <= 0 || st.BatterySoC > 1 {
		t.Errorf("SoC = %v", st.BatterySoC)
	}
	if st.Z < 0 {
		t.Errorf("altitude = %v", st.Z)
	}
}

func TestConsumeFragmented(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap := new(autopilot.Autopilot)
	ap.Init(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	var stream []byte
	for i := 0; i < 10; i++ {
		raw, _ := ap.AppendTelemetry(nil, &seq)
		stream = append(stream, raw...)
	}
	gs := New()
	for i := 0; i < len(stream); i += 3 {
		end := i + 3
		if end > len(stream) {
			end = len(stream)
		}
		gs.Consume(stream[i:end])
	}
	if got := gs.State().Heartbeats; got != 10 {
		t.Errorf("heartbeats = %d, want 10", got)
	}
}

// TestStateFollowsMission streams 2 Hz telemetry of a 10 m out-and-back
// mission: the station's state after each burst is the vehicle's newest
// fix, so its timestamps never go back and the path through them has the
// mission's length.
func TestStateFollowsMission(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap := new(autopilot.Autopilot)
	ap.Init(autopilot.Config{Quad: q, TakeoffAltM: 5, Seed: 4})
	gs := New()
	var seq uint8
	ap.Arm()
	runUntil(ap, func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Hover }, 30)
	ap.LoadMission(autopilot.MissionPlan{{Pos: mathx.V3(10, 0, 5)}})
	ap.StartMission()
	var fixes []VehicleState
	steps := 0
	runUntil(ap, func(a *autopilot.Autopilot) bool {
		steps++
		if steps%500 == 0 { // 2 Hz telemetry
			raw, _ := a.AppendTelemetry(nil, &seq)
			gs.Consume(raw)
			fixes = append(fixes, gs.State())
		}
		return a.Mode() == autopilot.Disarmed
	}, 120)
	if len(fixes) < 10 {
		t.Fatalf("station saw %d fixes", len(fixes))
	}
	dist := 0.0
	for i := 1; i < len(fixes); i++ {
		if fixes[i].TimeMS < fixes[i-1].TimeMS {
			t.Fatal("fix timestamps not monotone")
		}
		dist += math.Hypot(fixes[i].X-fixes[i-1].X, fixes[i].Y-fixes[i-1].Y)
	}
	// The mission went out ~10 m and back: distance flown ~20 m or more.
	if dist < 12 || dist > 60 {
		t.Errorf("distance flown = %.1f m, want ~20+", dist)
	}
}

// TestConsumeBurstsKeepNewestFix streams 5096 position fixes in 3000-byte
// bursts that split frames: every frame counts, and the state holds the
// newest fix.
func TestConsumeBurstsKeepNewestFix(t *testing.T) {
	gs := New()
	const n = 5096
	var stream []byte
	for i := 0; i < n; i++ {
		pl := mavlink.AppendGlobalPosition(nil, mavlink.GlobalPosition{TimeMS: uint32(i), X: float32(i), Y: float32(i % 2)})
		var err error
		if stream, err = (mavlink.Frame{Seq: uint8(i), MsgID: mavlink.MsgGlobalPosition, Payload: pl}).AppendTo(stream); err != nil {
			t.Fatal(err)
		}
	}
	for len(stream) > 0 {
		k := min(3000, len(stream))
		gs.Consume(stream[:k])
		stream = stream[k:]
	}
	st := gs.State()
	if st.Frames != n || st.ParseErrors != 0 {
		t.Errorf("frames = %d, parse errors = %d; want %d, 0", st.Frames, st.ParseErrors, n)
	}
	if st.TimeMS != n-1 || st.X != n-1 || st.Y != (n-1)%2 {
		t.Errorf("state holds fix t%d (%v, %v), want the newest, t%d", st.TimeMS, st.X, st.Y, n-1)
	}
}
