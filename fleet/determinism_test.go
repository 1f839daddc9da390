package fleet_test

import (
	"testing"

	"dronedse/fleet"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/scenario"
)

// hover is the shared hover workload: jobs holding the same pointer compare
// equal as JobSpec map keys.
var hover = &mission.WireSpec{KindName: "hover"}

// coTenants builds n varied jobs — hover and mission flights, wind, SLAM
// compute, odd packs — cycling a seed base so many lanes share specs.
func coTenants(n int, seedBase int64) []fleet.JobSpec {
	shapes := []fleet.JobSpec{
		{Workload: hover, MaxSeconds: 2},
		{Workload: hover, MaxSeconds: 2, WindMeanMS: 4, WindGustMS: 2},
		{Workload: hover, MaxSeconds: 2, SLAM: true},
		{Workload: hover, MaxSeconds: 3, TakeoffAltM: 8},
		{MaxSeconds: 20},
		{Workload: hover, MaxSeconds: 2, BatteryCells: 4, BatteryCapacityMah: 5000},
	}
	specs := make([]fleet.JobSpec, n)
	for i := range specs {
		s := shapes[i%len(shapes)]
		s.Seed = seedBase + int64(i%8)
		specs[i] = s
	}
	return specs
}

// drive advances the server until every job is terminal (bounded, so a
// stuck engine fails the test instead of hanging it).
func drive(t *testing.T, srv *fleet.Server) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if !srv.Advance(1000) {
			return
		}
	}
	t.Fatal("engine did not drain: jobs still live after 100000 advances")
}

// TestFleetMultiTenancyDeterminism is the ISSUE 7 acceptance property: the
// same seeded job submitted alone and alongside ≥63 co-tenant jobs — across
// parallelx pools 1/2/8, with a lane cap that forces
// queueing, eviction and slot reuse — produces bit-identical trajectory,
// flight-log and Equation-7 ledger digests, equal to a direct scenario.Run.
func TestFleetMultiTenancyDeterminism(t *testing.T) {
	ref := fleet.JobSpec{Seed: 7, Workload: hover, MaxSeconds: 2, WindMeanMS: 4, WindGustMS: 2}
	res, err := scenario.Run(ref.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	want := fleet.DigestResult(res)

	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 2, 8} {
		parallelx.SetPoolSize(pool)

		// Solo: the job is the server's only tenant.
		solo := fleet.New(fleet.Config{MaxLanes: 4})
		soloID, err := solo.Submit(ref)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, solo)
		soloSt, ok := solo.Job(soloID)
		if !ok || soloSt.Digests == nil {
			t.Fatalf("pool %d: solo job missing digests (state %s, err %q)",
				pool, soloSt.State, soloSt.Error)
		}
		if *soloSt.Digests != want {
			t.Fatalf("pool %d: solo fleet run diverged from scenario.Run", pool)
		}

		// Multi-tenant: the same job buried mid-queue among 63 co-tenants,
		// with only 16 lanes — admission order, queue churn and
		// slot reuse all in play.
		specs := coTenants(63, 100)
		specs = append(specs[:17], append([]fleet.JobSpec{ref}, specs[17:]...)...)
		multi := fleet.New(fleet.Config{MaxLanes: 16})
		ids, err := multi.SubmitAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, multi)

		st, ok := multi.Job(ids[17])
		if !ok || st.Digests == nil {
			t.Fatalf("pool %d: tenant job missing digests (state %s, err %q)",
				pool, st.State, st.Error)
		}
		if *st.Digests != want {
			t.Fatalf("pool %d: job diverged under 63 co-tenants", pool)
		}

		// Every co-tenant pair sharing a JobSpec must agree too, and the
		// whole digest table must be pool-invariant: pin it against the
		// pool-1 run.
		table := map[fleet.JobSpec]fleet.Digests{}
		for _, id := range ids {
			js, ok := multi.Job(id)
			if !ok || js.Digests == nil {
				t.Fatalf("pool %d: job %d unfinished (state %s, err %q)", pool, id, js.State, js.Error)
			}
			if prev, seen := table[js.Spec]; seen && prev != *js.Digests {
				t.Fatalf("pool %d: co-tenants with identical specs diverged (seed %d)",
					pool, js.Spec.Seed)
			}
			table[js.Spec] = *js.Digests
		}
		stats := multi.Stats()
		if stats.Completed != len(specs) || stats.Failed != 0 {
			t.Fatalf("pool %d: completed=%d failed=%d, want %d/0",
				pool, stats.Completed, stats.Failed, len(specs))
		}
		if stats.PeakLive > 16 {
			t.Fatalf("pool %d: peak live %d exceeded the 16-lane cap", pool, stats.PeakLive)
		}
	}
}

// TestFleetResultMatchesScenarioRun pins the structured-Result contract:
// job completion hands back the same Result a direct scenario.Run returns.
func TestFleetResultMatchesScenarioRun(t *testing.T) {
	spec := fleet.JobSpec{Seed: 3, MaxSeconds: 25}
	direct, err := scenario.Run(spec.Scenario())
	if err != nil {
		t.Fatal(err)
	}

	srv := fleet.New(fleet.Config{MaxLanes: 8})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	res, err := srv.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.DigestResult(res) != fleet.DigestResult(direct) {
		t.Fatal("fleet Result diverged from scenario.Run")
	}
	if res.Completed != direct.Completed || res.FlightTimeS != direct.FlightTimeS {
		t.Fatal("fleet Result summary fields diverged")
	}
}
