package scenario_test

// Workload-layer acceptance tests: the pluggable mission.Workload refactor
// must keep the historical goldens bit-identical through every batch/pool
// shape, give each new workload the same lane-determinism guarantees the box
// mission has, and keep steady-state batched stepping allocation-free with
// the new workloads resident.

import (
	"fmt"
	"os"
	"testing"

	"dronedse/autopilot"
	"dronedse/faultx"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/scenario"
	"dronedse/sensors"
	"dronedse/trace"
)

// workloadSpecs is the mixed-workload property-test fleet: one spec per
// workload kind, durations kept short so the matrix stays fast. A factory,
// like identitySpecs — specs are reused across batches by value.
func workloadSpecs() []scenario.Spec {
	return []scenario.Spec{
		{Seed: 121, MaxSeconds: 60, Workload: mission.Coverage{WidthM: 10, HeightM: 10, SpacingM: 5}},
		{Seed: 122, MaxSeconds: 60, Workload: mission.Delivery{Legs: []mission.DeliveryLeg{
			{Pickup: mathx.V3(6, 0, 6), Dropoff: mathx.V3(6, 8, 6), PayloadKg: 0.6}}}},
		{Seed: 123, MaxSeconds: 60, Workload: mission.Follow{DurationS: 10}},
		{Seed: 124, MaxSeconds: 20, Workload: mission.Box{}},
		{Seed: 125, MaxSeconds: 2, Workload: mission.Hover{}},
		{Seed: 126, MaxSeconds: 30, Workload: mission.Trajectory{
			Path: []mathx.Vec3{{X: 0, Y: 0, Z: 6}, {X: 8, Y: 4, Z: 6}}, VMaxMS: 4, AMaxMS2: 2}},
	}
}

// TestWorkloadFlysimGoldenBatched pins the mission-union removal against the
// historical golden: the reference flysim flight's trajectory digest must
// stay byte-identical when the flight runs as a lane of a batch of 1, 8 or
// 64 at pools 1, 2 and 8.
func TestWorkloadFlysimGoldenBatched(t *testing.T) {
	want := readGolden(t, "testdata/flysim_golden.txt")["traj_sha256"]
	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 2, 8} {
		parallelx.SetPoolSize(pool)
		for _, batchSize := range []int{1, 8, 64} {
			lanes := make([]scenario.Spec, batchSize)
			for i := range lanes {
				lanes[i] = scenario.Spec{Seed: 1}
			}
			results, errs := scenario.RunBatch(lanes)
			for i := range lanes {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got := trajDigest(results[i].Trajectory); got != want {
					t.Fatalf("pool %d batch %d lane %d: trajectory digest %s, golden %s",
						pool, batchSize, i, got, want)
				}
			}
		}
	}
}

// TestWorkloadGoldenDigests pins every workload kind's full-result digest so
// an unintended physics, driver or workload change fails loudly. Regenerate
// deliberately with GOLDEN_UPDATE=1.
func TestWorkloadGoldenDigests(t *testing.T) {
	specs := workloadSpecs()
	if updateGoldens {
		body := ""
		for _, spec := range specs {
			body += fmt.Sprintf("%s %s\n", spec.Workload.Kind(), runScoped(t, spec))
		}
		if err := os.WriteFile("testdata/workloads_golden.txt", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote testdata/workloads_golden.txt")
		return
	}
	want := readGolden(t, "testdata/workloads_golden.txt")
	for _, spec := range specs {
		kind := spec.Workload.Kind()
		if got := runScoped(t, spec); got != want[kind] {
			t.Errorf("%s: digest %s, golden %s", kind, got, want[kind])
		}
	}
}

// TestWorkloadMixedBatchBitIdentity is the per-workload lane-determinism
// property: each workload's flight is bit-identical run solo or as a lane of
// a mixed-workload batch — coverage next to delivery next to follow — at any
// pool size and batch width.
func TestWorkloadMixedBatchBitIdentity(t *testing.T) {
	specs := workloadSpecs()
	want := make([]string, len(specs))
	for i, spec := range specs {
		want[i] = runScoped(t, spec)
	}

	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 8} {
		parallelx.SetPoolSize(pool)
		for _, batchSize := range []int{len(specs), 64} {
			lanes := make([]scenario.Spec, batchSize)
			scopes := make([]*trace.Recorder, batchSize)
			fresh := workloadSpecs()
			for i := range lanes {
				lanes[i], scopes[i] = withScope(fresh[i%len(fresh)])
			}
			results, errs := scenario.RunBatch(lanes)
			for i := range lanes {
				got := resultDigest(t, results[i], errs[i], scopes[i])
				if got != want[i%len(specs)] {
					t.Fatalf("pool %d batch %d lane %d (%s): diverged from solo run",
						pool, batchSize, i, lanes[i].Workload.Kind())
				}
			}
		}
	}
}

// TestWorkloadZeroAllocSteadyState extends the batch alloc guard to the new
// workloads: with coverage, delivery and follow lanes resident and warmed
// past takeoff — the delivery lane mid payload-handoff window, the follow
// lane tracking — a batched step must not allocate.
func TestWorkloadZeroAllocSteadyState(t *testing.T) {
	prev := parallelx.SetPoolSize(1)
	defer parallelx.SetPoolSize(prev)
	b := scenario.NewBatch([]scenario.Spec{
		{Seed: 131, Workload: mission.Coverage{}},
		{Seed: 132, Workload: mission.DefaultDelivery()},
		{Seed: 133, Workload: mission.Follow{}},
	})
	b.Start()
	for i := 0; i < 10000; i++ {
		b.TickN(1)
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 500 {
			b.TickN(1)
		}
	}); n != 0 {
		t.Fatalf("500 batched workload steps allocate %.0f objects in steady state, want 0", n)
	}
}

// TestWorkloadOutcomes pins each workload's kind-specific outcome fields on
// a completing flight, and the partial-coverage report on a truncated one.
func TestWorkloadOutcomes(t *testing.T) {
	res, err := scenario.Run(scenario.Spec{Seed: 141, MaxSeconds: 120, Workload: mission.Coverage{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Workload.Completed || res.Workload.CoverageFrac != 1 {
		t.Fatalf("coverage: completed=%v frac=%v", res.Workload.Completed, res.Workload.CoverageFrac)
	}

	res, err = scenario.Run(scenario.Spec{Seed: 141, MaxSeconds: 25, Workload: mission.Coverage{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload.Completed || res.Workload.CoverageFrac <= 0 || res.Workload.CoverageFrac >= 1 {
		t.Fatalf("truncated coverage: completed=%v frac=%v", res.Workload.Completed, res.Workload.CoverageFrac)
	}

	res, err = scenario.Run(scenario.Spec{Seed: 142, MaxSeconds: 120, Workload: mission.DefaultDelivery()})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Workload
	if !out.Completed || out.LegsDone != 2 || out.DeliveredKg != 1.3 {
		t.Fatalf("delivery: %+v", out)
	}
	// The Equation 1 closure per carried-mass phase: empty-handed first,
	// then one phase per leg, heavier payloads costing hover endurance.
	if len(out.PhaseTotalG) != 3 || len(out.PhaseEnduranceMin) != 3 {
		t.Fatalf("delivery phases: %+v", out)
	}
	if !(out.PhaseTotalG[0] < out.PhaseTotalG[1] && out.PhaseTotalG[1] < out.PhaseTotalG[2]) {
		t.Fatalf("phase TotalG not increasing with payload: %v", out.PhaseTotalG)
	}
	if !(out.PhaseEnduranceMin[0] > out.PhaseEnduranceMin[1]) {
		t.Fatalf("payload did not cost endurance: %v", out.PhaseEnduranceMin)
	}

	res, err = scenario.Run(scenario.Spec{Seed: 143, MaxSeconds: 120, Workload: mission.Follow{DurationS: 20}})
	if err != nil {
		t.Fatal(err)
	}
	out = res.Workload
	if !out.Completed || out.MeanTrackErrM <= 0 || out.MaxTrackErrM < out.MeanTrackErrM {
		t.Fatalf("follow: %+v", out)
	}
	if out.MaxTrackErrM > 10 {
		t.Fatalf("follow lost the target: max track error %.1f m", out.MaxTrackErrM)
	}
}

// terminalMode is each kind's declared terminal state: the kinds that land
// end DISARMED, trajectory ends hovering at its terminus.
func terminalMode(kind string) autopilot.Mode {
	if kind == "trajectory" {
		return autopilot.Hover
	}
	return autopilot.Disarmed
}

// checkTerminal asserts that a completed workload ended in its kind's
// terminal state.
func checkTerminal(t *testing.T, name string, res *scenario.Result) {
	t.Helper()
	if want := terminalMode(res.Workload.Kind); res.Workload.Completed && res.FinalMode != want {
		t.Errorf("%s: completed in %v, want the terminal %v", name, res.FinalMode, want)
	}
}

// TestWorkloadLifecycle pins the shared lifecycle kind by kind at each of
// its branch points: takeoff fails, budget spent at entry, budget lapses
// while active, disarm while active, disarm while landing, budget lapses
// while landing. Only hover and follow have a landing watch, and
// trajectory's budget (TotalS+30) cannot be spent at entry, so those cells
// are absent. Each row pins the takeoff verdict, the final mode, both
// completion notions (Result.Completed is "every waypoint visited";
// Workload.Completed also needs the terminal state) and the flight time.
func TestWorkloadLifecycle(t *testing.T) {
	faults := func(ev ...faultx.Event) scenario.FaultInjector {
		in, err := faultx.NewInjector(faultx.Plan{Name: "lifecycle", Events: ev}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	// crash kills a motor at 4 s: the crash check disarms mid-workload.
	crash := func() scenario.FaultInjector {
		return faults(faultx.Event{Kind: faultx.MotorDerate, Start: 4, Motor: 0, Frac: 0})
	}
	// float biases GPS and baro 20 m low from 6 s: a landing aimed at the
	// biased ground never touches down.
	float := func() scenario.FaultInjector {
		return faults(
			faultx.Event{Kind: faultx.SensorBias, Sensor: sensors.SensorGPS, Start: 6, Vec: mathx.V3(0, 0, -20)},
			faultx.Event{Kind: faultx.SensorBias, Sensor: sensors.SensorBaro, Start: 6, Mag: -20})
	}
	waypointKinds := []mission.Workload{
		mission.Box{},
		mission.Waypoints{Plan: mission.BoxPlan(5)},
		mission.Coverage{WidthM: 10, HeightM: 10, SpacingM: 5},
		mission.Delivery{Legs: []mission.DeliveryLeg{
			{Pickup: mathx.V3(6, 0, 6), Dropoff: mathx.V3(6, 8, 6), PayloadKg: 0.6}}},
	}
	follow := func(s float64) mission.Workload { return mission.Follow{DurationS: s} }
	traj := mission.Trajectory{Path: []mathx.Vec3{{X: 0, Y: 0, Z: 6}, {X: 8, Y: 4, Z: 6}}, VMaxMS: 4, AMaxMS2: 2}

	type row struct {
		name      string
		spec      scenario.Spec
		takeoffOK bool
		final     autopilot.Mode
		visited   bool // Result.Completed
		completed bool // Workload.Completed
		flightS   string
	}
	const (
		takeoff, hover = autopilot.Takeoff, autopilot.Hover
		land, disarmed = autopilot.Land, autopilot.Disarmed
	)
	high := func(wl mission.Workload) scenario.Spec {
		return scenario.Spec{TakeoffAltM: 300, MaxSeconds: 60, Workload: wl}
	}
	var rows []row
	for i, wl := range waypointKinds {
		done := []string{"22.45", "22.45", "25.48", "17.63"}[i]
		rows = append(rows,
			row{"takeoff fails", high(wl), false, takeoff, false, false, "60.00"},
			row{"budget spent at entry", scenario.Spec{MaxSeconds: 1, Workload: wl}, true, autopilot.Mission, false, false, "2.58"},
			row{"disarm while active", scenario.Spec{MaxSeconds: 120, Workload: wl}, true, disarmed, true, true, done})
	}
	rows = append(rows,
		row{"budget lapses while active", scenario.Spec{MaxSeconds: 20}, true, land, true, false, "20.00"},
		row{"budget lapses while active", scenario.Spec{MaxSeconds: 20, Workload: waypointKinds[2]}, true, autopilot.ReturnToLaunch, true, false, "20.00"},
		row{"crash while active", scenario.Spec{MaxSeconds: 5, Faults: crash()}, true, disarmed, false, false, "4.35"},

		row{"takeoff fails", high(mission.Hover{}), false, disarmed, false, false, "62.38"},
		row{"budget spent at entry", scenario.Spec{MaxSeconds: 0.0005, Workload: mission.Hover{}}, true, disarmed, false, true, "7.23"},
		// A disarm while active does not end the loiter: the landing watch
		// that follows disarms again at once, and the hover completes.
		row{"disarm while active", scenario.Spec{MaxSeconds: 5, Workload: mission.Hover{}, Faults: crash()}, true, disarmed, false, true, "7.60"},
		row{"disarm while landing", scenario.Spec{MaxSeconds: 5, Workload: mission.Hover{}}, true, disarmed, false, true, "11.78"},
		row{"budget lapses while landing", scenario.Spec{MaxSeconds: 5, Workload: mission.Hover{}, Faults: float()}, true, land, false, false, "67.58"},

		row{"takeoff fails", high(follow(5)), false, disarmed, false, false, "62.38"},
		row{"budget spent at entry", scenario.Spec{Workload: follow(0.0005)}, true, disarmed, false, true, "7.23"},
		row{"disarm while active", scenario.Spec{Workload: follow(5), Faults: crash()}, true, disarmed, false, false, "7.60"},
		row{"disarm while landing", scenario.Spec{Workload: follow(5)}, true, disarmed, false, true, "11.50"},
		row{"budget lapses while landing", scenario.Spec{Workload: follow(5), Faults: float()}, true, land, false, false, "67.58"},

		row{"takeoff fails", high(traj), false, takeoff, false, false, "30.00"},
		row{"reaches its terminus", scenario.Spec{Workload: traj}, true, hover, false, true, "6.83"},
		// A disarm does not end a trajectory, which ends only in HOVER.
		row{"disarm while active", scenario.Spec{Workload: traj, Faults: crash()}, true, disarmed, false, false, "36.81"},
	)
	for _, r := range rows {
		r.spec.Seed = 1
		res, err := scenario.Run(r.spec)
		if err != nil {
			t.Fatal(err)
		}
		name := res.Workload.Kind + ": " + r.name
		got := fmt.Sprintf("takeoffOK=%v final=%v visited=%v completed=%v t=%.2f",
			res.TakeoffOK, res.FinalMode, res.Completed, res.Workload.Completed, res.FlightTimeS)
		want := fmt.Sprintf("takeoffOK=%v final=%v visited=%v completed=%v t=%s",
			r.takeoffOK, r.final, r.visited, r.completed, r.flightS)
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		checkTerminal(t, name, res)
	}
	for _, spec := range workloadSpecs() {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkTerminal(t, spec.Workload.Kind(), res)
	}
}
