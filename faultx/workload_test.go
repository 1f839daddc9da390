package faultx

import (
	"math"
	"strings"
	"testing"

	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/parallelx"
)

// TestWorkloadCampaignPoolInvariance extends the campaign determinism
// contract to the new workloads: a fault campaign flown over the coverage,
// delivery and follow workloads produces a byte-identical outcome table at
// any pool size.
func TestWorkloadCampaignPoolInvariance(t *testing.T) {
	scs := []Scenario{
		{
			Name: "gps-denial", Seed: 21,
			Plan: Plan{Events: []Event{{Kind: GPSDenial, Start: 8, Duration: 12}}},
		},
		severeScenario(21),
	}
	workloads := []mission.Workload{
		mission.Coverage{WidthM: 12, HeightM: 12, SpacingM: 6},
		mission.Delivery{Legs: []mission.DeliveryLeg{
			{Pickup: mathx.V3(6, 0, 6), Dropoff: mathx.V3(6, 8, 6), PayloadKg: 0.6}}},
		mission.Follow{DurationS: 20},
	}
	for _, wl := range workloads {
		cfg := Config{MaxSeconds: 120, Workload: wl}
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
		if t1 != run(4) {
			t.Errorf("%s: pool 1 vs 4 tables differ", wl.Kind())
		}
		if t1 != run(8) {
			t.Errorf("%s: pool 1 vs 8 tables differ", wl.Kind())
		}
		// The fault-free baseline row must exist and complete, so the
		// campaign is actually exercising the workload, not aborting it.
		if !strings.Contains(t1, "baseline") {
			t.Fatalf("%s: campaign table missing the baseline row:\n%s", wl.Kind(), t1)
		}
	}
}

// TestWorkloadCampaignRejectsBadWorkload pins the upfront validation: a
// campaign over a malformed workload fails before any flight is launched.
func TestWorkloadCampaignRejectsBadWorkload(t *testing.T) {
	_, err := Run(StandardScenarios(1), Config{
		MaxSeconds: 60,
		Workload:   mission.Follow{DurationS: math.NaN()},
	})
	if err == nil {
		t.Fatal("campaign accepted a malformed workload")
	}
}
