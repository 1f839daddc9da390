package faultx

import (
	"dronedse/mathx"
	"dronedse/sensors"
)

// severeScenario is the campaign's worst-case compound fault: a permanent
// radio outage (forcing the offload fallback onto the onboard host), a
// sagging and faded pack, a damaged motor, a gust step, a sustained GPS
// denial mid-mission, and a badly lossy telemetry link. The acceptance
// contract: the stack must fall back, escalate to RTL, and land without
// crashing.
func severeScenario(seed int64) Scenario {
	return Scenario{
		Name: "severe",
		Seed: seed,
		Plan: Plan{Name: "severe", Events: []Event{
			{Kind: MotorDerate, Start: 4, Motor: 0, Frac: 0.85},
			{Kind: WindGust, Start: 5, Vec: mathx.V3(2, 1, 0)},
			{Kind: LinkOutage, Start: 6},
			{Kind: BatterySag, Start: 6, Mag: 0.6, Frac: 0.3},
			{Kind: GPSDenial, Start: 5, Duration: 20},
		}},
		Link: LinkLoss{Drop: 0.1, Corrupt: 0.1, Dup: 0.05, Trunc: 0.05, Reorder: 0.05},
	}
}

// StandardScenarios is the faultcamp default set: one axis at a time, then
// the severe compound, all at the same seed so every row shares one
// fault-free baseline.
func StandardScenarios(seed int64) []Scenario {
	return []Scenario{
		{Name: "fault-free", Seed: seed},
		{
			Name: "gps-denial", Seed: seed,
			Plan: Plan{Name: "gps-denial", Events: []Event{
				{Kind: GPSDenial, Start: 8, Duration: 12},
			}},
		},
		{
			Name: "gps-flaky", Seed: seed,
			Plan: Plan{Name: "gps-flaky", Events: []Event{
				{Kind: SensorDropout, Sensor: sensors.SensorGPS, Start: 5, Duration: 30, Prob: 0.5},
			}},
		},
		{
			Name: "radio-outage", Seed: seed,
			Plan: Plan{Name: "radio-outage", Events: []Event{
				{Kind: LinkOutage, Start: 5, Duration: 8},
			}},
		},
		{
			Name: "lossy-telemetry", Seed: seed,
			Link: LinkLoss{Drop: 0.15, Corrupt: 0.15, Dup: 0.1, Trunc: 0.1, Reorder: 0.1},
		},
		{
			Name: "battery-fade", Seed: seed,
			Plan: Plan{Name: "battery-fade", Events: []Event{
				{Kind: BatterySag, Start: 6, Mag: 0.8, Frac: 0.5},
			}},
		},
		{
			Name: "motor-damage", Seed: seed,
			Plan: Plan{Name: "motor-damage", Events: []Event{
				{Kind: MotorDerate, Start: 10, Motor: 1, Frac: 0.7},
				{Kind: WindGust, Start: 10, Vec: mathx.V3(1.5, -1, 0)},
			}},
		},
		severeScenario(seed),
	}
}
