package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dronedse/components"
	"dronedse/propulsion"
)

// randomSpec draws a plausible design-space point.
func randomSpec(r *rand.Rand) Spec {
	return Spec{
		WheelbaseMM: 100 + r.Float64()*800,
		Cells:       1 + r.Intn(6),
		CapacityMah: 1000 + r.Float64()*7000,
		TWR:         2 + r.Float64()*2,
		Compute: components.ComputeTier{
			Name:    "rand",
			PowerW:  0.5 + r.Float64()*20,
			WeightG: 5 + r.Float64()*150,
		},
		PayloadG: r.Float64() * 300,
		ESCClass: components.LongFlight,
	}
}

func specValues(vals []reflect.Value, r *rand.Rand) {
	vals[0] = reflect.ValueOf(randomSpec(r))
}

// TestResolveInvariantsProperty checks structural invariants over random
// feasible designs.
func TestResolveInvariantsProperty(t *testing.T) {
	f := func(spec Spec) bool {
		d, err := Resolve(spec)
		if err != nil {
			return true // infeasible corners are allowed to fail
		}
		fixed := d.FrameG + d.BatteryG + d.PropsG +
			spec.Compute.WeightG + spec.SensorsG + spec.PayloadG
		if d.TotalG <= fixed {
			t.Logf("total %v not above fixed parts %v", d.TotalG, fixed)
			return false
		}
		share := d.ComputeSharePct(propulsion.HoverLoadFraction)
		if share <= 0 || share >= 100 {
			t.Logf("share %v out of range", share)
			return false
		}
		if d.HoverPowerW() >= d.ManeuverPowerW() {
			return false
		}
		if d.FlightTimeMin(propulsion.HoverLoadFraction) <= d.FlightTimeMin(propulsion.ManeuverLoadFraction) {
			return false
		}
		if d.RequiredCurrentA <= 0 || d.MotorMaxCurrentA <= d.RequiredCurrentA {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Values: specValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestResolveDeterministicProperty: same spec, same design.
func TestResolveDeterministicProperty(t *testing.T) {
	f := func(spec Spec) bool {
		a, errA := Resolve(spec)
		b, errB := Resolve(spec)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Values: specValues}); err != nil {
		t.Error(err)
	}
}

// TestMoreComputeNeverHelpsProperty: Equation 7's direction — adding compute
// power (same weight) always costs flight time.
func TestMoreComputeNeverHelpsProperty(t *testing.T) {
	f := func(spec Spec) bool {
		base, err := Resolve(spec)
		if err != nil {
			return true
		}
		heavier := spec
		heavier.Compute.PowerW += 5
		d, err := Resolve(heavier)
		if err != nil {
			return true
		}
		return d.HoverFlightTimeMin() < base.HoverFlightTimeMin()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Values: specValues}); err != nil {
		t.Error(err)
	}
}

// TestBiggerPropsMoreEfficientProperty: at the same total-thrust demand, a
// larger wheelbase (bigger disk) needs less per-motor power — the physics
// behind Figure 9's per-wheelbase families.
func TestBiggerPropsMoreEfficientProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		spec.WheelbaseMM = 150 + r.Float64()*300
		small, errA := Resolve(spec)
		bigger := spec
		bigger.WheelbaseMM = spec.WheelbaseMM * 2
		big, errB := Resolve(bigger)
		if errA != nil || errB != nil {
			return true
		}
		// Compare power per gram of lift: the bigger platform must be
		// more efficient even though its frame is heavier.
		smallEff := small.HoverPowerW() / small.TotalG
		bigEff := big.HoverPowerW() / big.TotalG
		return bigEff < smallEff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
