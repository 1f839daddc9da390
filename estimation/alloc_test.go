package estimation

import (
	"testing"

	"dronedse/mathx"
	"dronedse/sensors"
)

// TestPosVelEKFZeroAllocSteadyState pins the satellite requirement of ISSUE 6:
// after construction, Predict and every update path must run without touching
// the heap — the filter's algebra lives entirely in its scratch arena.
func TestPosVelEKFZeroAllocSteadyState(t *testing.T) {
	k := NewPosVelEKF()
	accel := mathx.V3(0.1, -0.2, 9.75)
	fix := sensors.GPSSample{Pos: mathx.V3(1, 2, 3), Vel: mathx.V3(0.1, 0.2, 0.3)}
	// Warm once so any lazy set-up happens outside the measured region.
	k.Predict(accel, 1.0/200)
	k.UpdateGPS(fix, 1.5, 0.3)
	k.UpdateBaro(3.1, 0.4)

	if n := testing.AllocsPerRun(200, func() {
		k.Predict(accel, 1.0/200)
	}); n != 0 {
		t.Fatalf("Predict allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		k.UpdateGPS(fix, 1.5, 0.3)
	}); n != 0 {
		t.Fatalf("UpdateGPS allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		k.UpdateBaro(3.1, 0.4)
	}); n != 0 {
		t.Fatalf("UpdateBaro allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		k.Predict(accel, 1.0/200)
		k.UpdateGPS(fix, 1.5, 0.3)
		k.UpdateBaro(3.1, 0.4)
	}); n != 0 {
		t.Fatalf("full predict/update cycle allocates %.1f objects, want 0", n)
	}
}

// TestEstimatorZeroAllocSteadyState extends the guarantee to the composed
// attitude + position estimator driven the way Autopilot.Step drives it.
func TestEstimatorZeroAllocSteadyState(t *testing.T) {
	e := NewEstimator()
	imu := sensors.IMUSample{Accel: mathx.V3(0.05, 0.02, 9.79), Gyro: mathx.V3(0.01, -0.02, 0.005)}
	fix := sensors.GPSSample{Pos: mathx.V3(0.4, -0.2, 5), Vel: mathx.V3(0, 0, 0.1)}
	e.OnIMU(imu, 1.0/200)
	e.OnGPS(fix)
	e.OnBaro(5.05)
	e.OnMag(0.02, 1.0/10)

	if n := testing.AllocsPerRun(200, func() {
		e.OnIMU(imu, 1.0/200)
		e.OnGPS(fix)
		e.OnBaro(5.05)
		e.OnMag(0.02, 1.0/10)
	}); n != 0 {
		t.Fatalf("estimator step cycle allocates %.1f objects, want 0", n)
	}
	// Coasting through a GPS outage must also stay heap-free.
	e.DeclareOutage(sensors.SensorGPS, true)
	e.OnIMU(imu, 1.0/200)
	if n := testing.AllocsPerRun(200, func() {
		e.OnIMU(imu, 1.0/200)
		e.OnGPS(fix)
	}); n != 0 {
		t.Fatalf("coasting step allocates %.1f objects, want 0", n)
	}
}
