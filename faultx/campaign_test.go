package faultx

import (
	"testing"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/parallelx"
	"dronedse/power"
	"dronedse/scenario"
	"dronedse/sim"
)

// flysimReference replays cmd/flysim's default mission exactly — same
// plant, pack, compute power, mission and seed — recording the true
// position at 10 Hz. The fault-free campaign flight must match it bit for
// bit.
func flysimReference(t *testing.T, seed int64) ([]mathx.Vec3, float64) {
	t.Helper()
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pack := new(power.Pack)
	pack.Init(3, 3000, 30)
	ap := new(autopilot.Autopilot)
	ap.Init(autopilot.Config{
		Quad: q, Battery: pack, ComputeW: 3.39 + 0.75, TakeoffAltM: 5, Seed: seed,
	})
	var traj []mathx.Vec3
	steps := 0
	ap.Observe(func(a *autopilot.Autopilot, dt float64) {
		if steps%100 == 0 {
			traj = append(traj, a.Quad().State().Pos)
		}
		steps++
	})
	mission := autopilot.MissionPlan{
		{Pos: mathx.V3(12, 0, 6), HoldS: 1},
		{Pos: mathx.V3(12, 12, 8), HoldS: 1},
		{Pos: mathx.V3(0, 12, 6), HoldS: 1},
	}
	if err := ap.LoadMission(mission); err != nil {
		t.Fatal(err)
	}
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	if !ap.RunUntil(func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Hover }, 30) {
		t.Fatal("reference takeoff failed")
	}
	if err := ap.StartMission(); err != nil {
		t.Fatal(err)
	}
	if !ap.RunUntil(func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Disarmed }, 240) {
		t.Fatal("reference mission did not complete")
	}
	return traj, ap.Time()
}

// TestFaultFreeBitIdentical is the transparency contract: flying the
// campaign harness with an empty fault plan — injector bound, fault view
// installed, offload session polling, telemetry streaming — must not
// change a single bit of the trajectory versus the plain flysim stack.
func TestFaultFreeBitIdentical(t *testing.T) {
	const seed = 1
	want, wantT := flysimReference(t, seed)
	l := buildLane(Scenario{Name: "fault-free", Seed: seed}, Config{}.withDefaults())
	res, err := scenario.Run(l.spec)
	if err != nil {
		t.Fatal(err)
	}
	got := l.finish(res)
	if got.res.Outcome != OutcomeCompleted {
		t.Fatalf("fault-free outcome = %v (%s)", got.res.Outcome, got.res.LastEvent)
	}
	if got.res.FlightTimeS != wantT {
		t.Fatalf("flight time %v != reference %v", got.res.FlightTimeS, wantT)
	}
	if len(got.traj) != len(want) {
		t.Fatalf("trajectory length %d != reference %d", len(got.traj), len(want))
	}
	for i := range want {
		if got.traj[i] != want[i] {
			t.Fatalf("trajectory diverges at sample %d: %v != %v", i, got.traj[i], want[i])
		}
	}
}

// TestCampaignPoolInvariance is the reproducibility property: the same
// scenarios and seeds must render a byte-identical campaign table whether
// the flights run serially or across 2 or 8 workers.
func TestCampaignPoolInvariance(t *testing.T) {
	scs := []Scenario{
		{
			Name: "gps-denial", Seed: 11,
			Plan: Plan{Events: []Event{{Kind: GPSDenial, Start: 8, Duration: 12}}},
		},
		SevereScenario(11),
	}
	cfg := Config{MaxSeconds: 200}
	run := func(pool int) string {
		old := parallelx.SetPoolSize(pool)
		defer parallelx.SetPoolSize(old)
		c, err := Run(scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.Table()
	}
	t1 := run(1)
	t2 := run(2)
	t8 := run(8)
	if t1 != t2 {
		t.Errorf("pool 1 vs 2 tables differ:\n%s\nvs\n%s", t1, t2)
	}
	if t1 != t8 {
		t.Errorf("pool 1 vs 8 tables differ:\n%s\nvs\n%s", t1, t8)
	}
}

// TestSevereScenario is the graceful-degradation acceptance: the compound
// worst case must force the offload fallback and a failsafe RTL — and the
// vehicle must still get down without crashing.
func TestSevereScenario(t *testing.T) {
	c, err := Run([]Scenario{SevereScenario(5)}, Config{MaxSeconds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Baselines) != 1 || len(c.Results) != 1 {
		t.Fatalf("campaign shape: %d baselines, %d results", len(c.Baselines), len(c.Results))
	}
	base, r := c.Baselines[0], c.Results[0]
	if base.Outcome != OutcomeCompleted {
		t.Fatalf("baseline outcome = %v (%s)", base.Outcome, base.LastEvent)
	}
	if r.Outcome == OutcomeCrashed {
		t.Fatalf("severe scenario crashed (%s)", r.LastEvent)
	}
	if r.Outcome != OutcomeRTL {
		t.Errorf("severe outcome = %v, want failsafe RTL (%s)", r.Outcome, r.LastEvent)
	}
	if r.Fallbacks < 1 {
		t.Errorf("offload fallbacks = %d, want >= 1 (radio outage must push compute onboard)", r.Fallbacks)
	}
	if r.MaxEstErrM <= base.MaxEstErrM {
		t.Errorf("severe est err %.2f m not worse than baseline %.2f m", r.MaxEstErrM, base.MaxEstErrM)
	}
	if r.MaxPathDivM <= 0.5 {
		t.Errorf("severe path divergence = %.2f m: faults left no trace", r.MaxPathDivM)
	}
	if r.TelemetryDropped == 0 {
		t.Errorf("lossy telemetry dropped no chunks")
	}
	if r.TelemetryFrames == 0 {
		t.Errorf("ground station decoded nothing through the lossy link")
	}
}
