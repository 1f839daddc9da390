package mission

import (
	"encoding/json"
	"math"
	"testing"

	"dronedse/autopilot"
	"dronedse/mathx"
)

// TestWorkloadValidation pins the wire-input guards: every malformed
// workload a tenant could submit is rejected by Validate, and the healthy
// defaults all pass.
func TestWorkloadValidation(t *testing.T) {
	valid := []Workload{
		Box{}, Hover{}, Coverage{}, DefaultDelivery(), Follow{},
		Waypoints{Plan: BoxPlan(5)},
		Trajectory{Path: []mathx.Vec3{{X: 0, Y: 0, Z: 5}, {X: 10, Y: 0, Z: 5}}},
		WireSpec{}, WireSpec{KindName: "delivery"},
	}
	for _, wl := range valid {
		if err := wl.Validate(); err != nil {
			t.Errorf("%s: valid workload rejected: %v", wl.Kind(), err)
		}
	}

	nan := math.NaN()
	// line returns n distinct points 1 m apart at 5 m altitude.
	line := func(n int) []mathx.Vec3 {
		pts := make([]mathx.Vec3, n)
		for i := range pts {
			pts[i] = mathx.V3(float64(i), 0, 5)
		}
		return pts
	}
	longPlan := make(autopilot.MissionPlan, maxPlanPoints+1)
	for i, p := range line(len(longPlan)) {
		longPlan[i].Pos = p
	}
	invalid := []struct {
		name string
		wl   Workload
	}{
		{"empty waypoints", Waypoints{}},
		{"waypoint below ground", Waypoints{Plan: autopilot.MissionPlan{{Pos: mathx.V3(1, 1, 0)}}}},
		{"waypoint nan hold", Waypoints{Plan: autopilot.MissionPlan{{Pos: mathx.V3(1, 1, 5), HoldS: nan}}}},
		{"delivery no legs", Delivery{}},
		{"delivery too many legs", Delivery{Legs: make([]DeliveryLeg, maxDeliveryLegs+1)}},
		{"delivery heavy payload", Delivery{Legs: []DeliveryLeg{
			{Pickup: mathx.V3(1, 0, 5), Dropoff: mathx.V3(2, 0, 5), PayloadKg: maxDeliveryPayloadKg + 1}}}},
		{"delivery below ground", Delivery{Legs: []DeliveryLeg{
			{Pickup: mathx.V3(1, 0, 0), Dropoff: mathx.V3(2, 0, 5)}}}},
		{"delivery nan payload", Delivery{Legs: []DeliveryLeg{
			{Pickup: mathx.V3(1, 0, 5), Dropoff: mathx.V3(2, 0, 5), PayloadKg: nan}}}},
		{"coverage zero spacing", Coverage{SpacingM: -1}},
		{"coverage nan extent", Coverage{WidthM: nan}},
		{"coverage waypoint cap", Coverage{HeightM: 10000, SpacingM: 1}},
		{"follow nan duration", Follow{DurationS: nan}},
		{"follow fast target", Follow{Target: FollowTarget{SpeedMS: 21}}},
		{"follow far standoff", Follow{StandoffM: 51}},
		{"waypoint cap", Waypoints{Plan: longPlan}},
		{"trajectory short path", Trajectory{Path: []mathx.Vec3{{Z: 5}}}},
		{"trajectory zero-length path", Trajectory{Path: []mathx.Vec3{{Z: 5}, {Z: 5}}}},
		{"trajectory point cap", Trajectory{Path: line(maxPlanPoints + 1)}},
		{"trajectory over an hour", Trajectory{Path: line(11), VMaxMS: 0.001}},
		{"trajectory overflowing step budget", Trajectory{Path: line(11), VMaxMS: 1e-300}},
		{"wire unknown kind", WireSpec{KindName: "teleport"}},
		{"wire bad payload", WireSpec{KindName: "delivery", Delivery: &Delivery{HoldS: -1,
			Legs: []DeliveryLeg{{Pickup: mathx.V3(1, 0, 5), Dropoff: mathx.V3(2, 0, 5)}}}}},
	}
	for _, c := range invalid {
		if err := c.wl.Validate(); err == nil {
			t.Errorf("%s: invalid workload accepted", c.name)
		}
	}
}

// TestWireSpecRoundTrip pins the serializable form: every kind survives a
// JSON round trip with its payload intact and still resolves to the same
// concrete workload.
func TestWireSpecRoundTrip(t *testing.T) {
	specs := []WireSpec{
		{},
		{KindName: "box"},
		{KindName: "hover"},
		{KindName: "waypoints", Plan: BoxPlan(5)},
		{KindName: "trajectory", Trajectory: &Trajectory{
			Path: []mathx.Vec3{{Z: 5}, {X: 10, Z: 5}}, VMaxMS: 4, AMaxMS2: 2}},
		{KindName: "coverage", Coverage: &Coverage{WidthM: 10, HeightM: 10, SpacingM: 5}},
		{KindName: "delivery", Delivery: &Delivery{HoldS: 3, Legs: []DeliveryLeg{
			{Pickup: mathx.V3(5, 0, 6), Dropoff: mathx.V3(5, 8, 6), PayloadKg: 0.7}}}},
		{KindName: "follow", Follow: &Follow{DurationS: 30,
			Target: FollowTarget{Seed: 9, SpeedMS: 3}}},
	}
	for _, ws := range specs {
		raw, err := json.Marshal(ws)
		if err != nil {
			t.Fatalf("%s: marshal: %v", ws.Kind(), err)
		}
		var back WireSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", ws.Kind(), err)
		}
		raw2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Errorf("%s: round trip changed the wire form:\n  %s\n  %s", ws.Kind(), raw, raw2)
		}
		wl, err := back.Resolve()
		if err != nil {
			t.Fatalf("%s: resolve after round trip: %v", ws.Kind(), err)
		}
		if ws.KindName != "" && wl.Kind() != ws.KindName {
			t.Errorf("resolved kind %s, want %s", wl.Kind(), ws.KindName)
		}
	}
}

// TestNamed pins the CLI name → workload mapping.
func TestNamed(t *testing.T) {
	for _, kind := range []string{"", "box", "hover", "coverage", "delivery", "follow"} {
		if _, err := Named(kind); err != nil {
			t.Errorf("Named(%q): %v", kind, err)
		}
	}
	if _, err := Named("warp"); err == nil {
		t.Error("Named accepted an unknown kind")
	}
}

// TestTargetModel pins the follow target's determinism and clamping: the
// route is a pure function of (seed, parameters); t at or before zero reads
// the start position (the follow controller samples half a second into the
// past right after engaging); beyond the horizon the target halts.
func TestTargetModel(t *testing.T) {
	cfg := FollowTarget{Start: mathx.V3(3, -2, 9)}
	a := NewTargetModel(cfg, 42, 120)
	b := NewTargetModel(cfg, 42, 120)
	for _, tt := range []float64{-1, -0.5, 0, 0.3, 7, 33.33, 119, 500} {
		pa, pb := a.At(tt), b.At(tt)
		if pa != pb {
			t.Fatalf("t=%v: same seed diverged: %v vs %v", tt, pa, pb)
		}
	}
	start := mathx.V3(3, -2, 0) // Z forced to ground
	if a.At(-0.5) != start || a.At(0) != start {
		t.Fatalf("t<=0 must clamp to the start: %v / %v", a.At(-0.5), a.At(0))
	}
	if a.At(0.1) == start {
		t.Fatal("target did not move")
	}
	if a.At(400) != a.At(500) {
		t.Fatal("target must halt beyond the horizon")
	}
	if c := NewTargetModel(cfg, 43, 120); c.At(20) == a.At(20) {
		t.Fatal("different seeds produced the same route")
	}

	// Continuity: positions at segment scale move at most SpeedMS * dt.
	prev := a.At(0.0)
	for tt := 0.1; tt < 130; tt += 0.1 {
		p := a.At(tt)
		if d := p.Sub(prev).Norm(); d > 2*0.1+1e-9 {
			t.Fatalf("t=%.1f: target jumped %.3f m in 0.1 s", tt, d)
		}
		prev = p
	}
}
