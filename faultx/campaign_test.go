package faultx

import (
	"encoding/json"
	"math"
	"testing"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/mission"
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
	lanes, rows, _ := layout([]Scenario{{Name: "fault-free", Seed: seed}}, Config{}.withDefaults())
	res, err := scenario.Run(lanes[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	got := rows[1].finish(res)
	if got.res.Outcome != OutcomeCompleted {
		t.Fatalf("fault-free outcome = %v (%s)", got.res.Outcome, got.res.LastEvent)
	}
	if got.res.FlightTimeS != wantT {
		t.Fatalf("flight time %v != reference %v", got.res.FlightTimeS, wantT)
	}
	if got.traj.Len() != len(want) {
		t.Fatalf("trajectory length %d != reference %d", got.traj.Len(), len(want))
	}
	for i, p := range got.traj.All() {
		if p != want[i] {
			t.Fatalf("trajectory diverges at sample %d: %v != %v", i, p, want[i])
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
		severeScenario(11),
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
	c, err := Run([]Scenario{severeScenario(5)}, Config{MaxSeconds: 200})
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
		t.Errorf("the row's parser decoded nothing through the lossy link")
	}
}

// TestCampaignLayoutSharesFlights pins the lane grouping: rows share a lane
// exactly when they share a seed and bit-identical fault events.
func TestCampaignLayoutSharesFlights(t *testing.T) {
	cfg := Config{}.withDefaults()
	scs := append(StandardScenarios(1), StandardScenarios(2)...)
	lanes, rows, nBase := layout(scs, cfg)
	// Per seed: the baseline, fault-free and lossy-telemetry rows fly one
	// flight; the six faulted scenarios fly their own.
	if nBase != 2 || len(rows) != 18 || len(lanes) != 14 {
		t.Fatalf("standard scenarios at 2 seeds: %d baselines, %d rows, %d lanes; want 2, 18, 14",
			nBase, len(rows), len(lanes))
	}
	for _, name := range []string{"fault-free", "lossy-telemetry"} {
		for i, sc := range scs {
			if sc.Name == name && rows[nBase+i].lane != rows[sc.Seed-1].lane {
				t.Errorf("%s at seed %d flies lane %d, not its baseline's", name, sc.Seed, rows[nBase+i].lane)
			}
		}
	}

	denial := []Event{{Kind: GPSDenial, Start: 8, Duration: 12}}
	nLanes := func(scs ...Scenario) int {
		lanes, _, _ := layout(scs, cfg)
		return len(lanes)
	}
	if n := nLanes(
		Scenario{Name: "a", Seed: 3, Plan: Plan{Name: "a", Events: denial}},
		Scenario{Name: "b", Seed: 3, Plan: Plan{Name: "b", Events: denial}},
	); n != 2 {
		t.Errorf("same events under another plan name: %d lanes, want 2 (baseline + one shared)", n)
	}
	if n := nLanes(
		Scenario{Name: "a", Seed: 3, Plan: Plan{Events: denial}},
		Scenario{Name: "a", Seed: 4, Plan: Plan{Events: denial}},
	); n != 4 {
		t.Errorf("same events at another seed: %d lanes, want 4", n)
	}
	gust := func(x float64) Scenario {
		return Scenario{Name: "gust", Seed: 3, Plan: Plan{Events: []Event{{Kind: WindGust, Start: 5, Vec: mathx.V3(x, 1, 0)}}}}
	}
	if n := nLanes(gust(0), gust(math.Copysign(0, -1))); n != 3 {
		t.Errorf("events differing only in -0/+0: %d lanes, want 3", n)
	}
}

// TestCampaignSharedFlightsMatchSolo is the sharing contract: every row of
// a multi-seed standard campaign, telemetry accounting included, equals the
// row from flying that scenario in a campaign of its own.
func TestCampaignSharedFlightsMatchSolo(t *testing.T) {
	workloads := []mission.Workload{nil, mission.Follow{DurationS: 20}}
	marshal := func(r Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, wl := range workloads {
		kind := "box"
		if wl != nil {
			kind = wl.Kind()
		}
		cfg := Config{MaxSeconds: 120, Workload: wl}
		scs := append(StandardScenarios(31), StandardScenarios(32)...)
		c, err := Run(scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Baselines) != 2 || len(c.Results) != len(scs) {
			t.Fatalf("campaign shape: %d baselines, %d results", len(c.Baselines), len(c.Results))
		}
		for i, sc := range scs {
			solo, err := Run([]Scenario{sc}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := c.Baselines[sc.Seed-31]
			if got, want := marshal(base), marshal(solo.Baselines[0]); got != want {
				t.Errorf("%s: baseline at seed %d:\n shared %s\n solo   %s", kind, sc.Seed, got, want)
			}
			if got, want := marshal(c.Results[i]), marshal(solo.Results[0]); got != want {
				t.Errorf("%s: %s at seed %d:\n shared %s\n solo   %s", kind, sc.Name, sc.Seed, got, want)
			}
			if sc.Name == "lossy-telemetry" {
				if c.Results[i].TelemetryDropped == 0 || base.TelemetryDropped != 0 {
					t.Errorf("%s: lossy-telemetry dropped %d chunks, its baseline %d; want > 0 and 0",
						kind, c.Results[i].TelemetryDropped, base.TelemetryDropped)
				}
			}
		}
	}
}

// TestCampaignRejectsNonFinite pins upfront validation of every scenario
// input: a non-finite fault field or an out-of-range link probability
// fails the campaign before any flight is launched.
func TestCampaignRejectsNonFinite(t *testing.T) {
	bad := []Scenario{
		{Name: "nan-derate", Seed: 1, Plan: Plan{Events: []Event{{Kind: MotorDerate, Motor: 0, Frac: math.NaN()}}}},
		{Name: "nan-drop", Seed: 1, Link: LinkLoss{Drop: math.NaN()}},
		{Name: "inf-dup", Seed: 1, Link: LinkLoss{Dup: math.Inf(1)}},
		{Name: "big-trunc", Seed: 1, Link: LinkLoss{Trunc: 1.5}},
		{Name: "neg-reorder", Seed: 1, Link: LinkLoss{Reorder: -0.1}},
	}
	for _, sc := range bad {
		if _, err := Run([]Scenario{severeScenario(1), sc}, Config{MaxSeconds: 10}); err == nil {
			t.Errorf("campaign accepted scenario %q", sc.Name)
		}
	}
}
