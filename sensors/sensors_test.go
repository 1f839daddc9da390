package sensors

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/sim"
	"dronedse/units"
)

func TestClockedRate(t *testing.T) {
	c := Clocked{RateHz: 10}
	ticks := 0
	for i := 0; i <= 1000; i++ { // 1 s at 1 kHz
		if c.Due(float64(i) * 1e-3) {
			ticks++
		}
	}
	if ticks < 10 || ticks > 12 {
		t.Errorf("10 Hz sensor ticked %d times in 1 s", ticks)
	}
	var off Clocked
	if off.Due(1) {
		t.Error("zero-rate sensor should never be due")
	}
}

// TestClockedPeriodFollowsRate pins the cached period: it is exactly
// 1/RateHz, including after RateHz changes, and Due gates on the new rate.
func TestClockedPeriodFollowsRate(t *testing.T) {
	c := Clocked{RateHz: 200}
	for _, hz := range []float64{200, 40, 7, 200} {
		c.RateHz = hz
		if got, want := c.Period(), 1/hz; got != want {
			t.Fatalf("Period at %v Hz = %v, want %v", hz, got, want)
		}
	}
	c = Clocked{RateHz: 200}
	c.Due(0)
	c.RateHz = 5
	ticks := 0
	for i := 1; i <= 1000; i++ {
		if c.Due(float64(i) * 1e-3) {
			ticks++
		}
	}
	if ticks != 5 {
		t.Errorf("sensor re-rated to 5 Hz ticked %d times in 1 s", ticks)
	}
	if p := (&Clocked{}).Period(); !math.IsInf(p, 1) {
		t.Errorf("zero-rate period = %v, want +Inf", p)
	}
}

func TestTable2aRates(t *testing.T) {
	rows := Table2a()
	if len(rows) != 5 {
		t.Fatalf("Table 2a rows = %d, want 5", len(rows))
	}
	suite := NewSuite(1)
	check := func(name string, rate, lo, hi float64) {
		t.Helper()
		if rate < lo || rate > hi {
			t.Errorf("%s at %v Hz, outside Table 2a band [%v, %v]", name, rate, lo, hi)
		}
	}
	check("IMU", suite.IMU.RateHz, 100, 200)
	check("Magnetometer", suite.Mag.RateHz, 10, 10)
	check("Barometer", suite.Baro.RateHz, 10, 20)
	check("GPS", suite.GPS.RateHz, 1, 40)
}

func TestIMUAtRestReadsGravity(t *testing.T) {
	imu := NewIMU(200, 42)
	imu.AccelNoiseStd = 0
	imu.AccelBias = mathx.Vec3{}
	imu.GyroNoiseStd = 0
	imu.GyroBias = mathx.Vec3{}
	s := sim.State{Att: mathx.QuatIdentity()}
	r := imu.Sample(s, mathx.Vec3{})
	if math.Abs(r.Accel.Z-units.Gravity) > 1e-9 || math.Abs(r.Accel.X) > 1e-9 {
		t.Errorf("rest accel = %v, want (0,0,g)", r.Accel)
	}
	if r.Gyro.Norm() > 1e-12 {
		t.Errorf("rest gyro = %v", r.Gyro)
	}
}

func TestIMUTiltedReadsRotatedGravity(t *testing.T) {
	imu := NewIMU(200, 42)
	imu.AccelNoiseStd, imu.AccelBias = 0, mathx.Vec3{}
	// 90 degrees roll: gravity reads along body -Y.
	s := sim.State{Att: mathx.QuatFromAxisAngle(mathx.V3(1, 0, 0), math.Pi/2)}
	r := imu.Sample(s, mathx.Vec3{})
	if math.Abs(r.Accel.Y-units.Gravity) > 1e-9 {
		t.Errorf("rolled accel = %v, want g on +Y", r.Accel)
	}
}

func TestIMUNoiseStatistics(t *testing.T) {
	imu := NewIMU(200, 7)
	s := sim.State{Att: mathx.QuatIdentity()}
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, imu.Sample(s, mathx.Vec3{}).Gyro.X)
	}
	mean := mathx.Mean(xs)
	sd := mathx.StdDev(xs)
	if math.Abs(mean-imu.GyroBias.X) > 3*imu.GyroNoiseStd/math.Sqrt(5000) {
		t.Errorf("gyro mean %v far from bias %v", mean, imu.GyroBias.X)
	}
	if !mathx.WithinRel(sd, imu.GyroNoiseStd, 0.1) {
		t.Errorf("gyro noise std = %v, configured %v", sd, imu.GyroNoiseStd)
	}
}

func TestGPSSampleNoise(t *testing.T) {
	g := NewGPS(5, 9)
	s := sim.State{Pos: mathx.V3(100, -50, 30), Vel: mathx.V3(1, 2, 3)}
	var errs []float64
	for i := 0; i < 2000; i++ {
		fix := g.Sample(s)
		errs = append(errs, fix.Pos.X-100)
		if fix.Vel.Sub(s.Vel).Norm() > 1 {
			t.Fatalf("velocity noise implausible: %v", fix.Vel)
		}
	}
	if !mathx.WithinRel(mathx.StdDev(errs), g.PosNoiseStd, 0.12) {
		t.Errorf("GPS position noise std = %v, configured %v", mathx.StdDev(errs), g.PosNoiseStd)
	}
}

func TestBarometer(t *testing.T) {
	b := NewBarometer(15, 3)
	s := sim.State{Pos: mathx.V3(0, 0, 12)}
	var alts []float64
	for i := 0; i < 2000; i++ {
		alts = append(alts, b.SampleAltitude(s))
	}
	if math.Abs(mathx.Mean(alts)-12-b.Bias) > 0.05 {
		t.Errorf("baro mean %v, want 12+bias(%v)", mathx.Mean(alts), b.Bias)
	}
}

func TestMagnetometer(t *testing.T) {
	m := NewMagnetometer(10, 4)
	s := sim.State{Att: mathx.QuatFromEuler(0, 0, 1.1)}
	var yaws []float64
	for i := 0; i < 2000; i++ {
		yaws = append(yaws, m.SampleYaw(s))
	}
	if math.Abs(mathx.Mean(yaws)-1.1) > 0.01 {
		t.Errorf("mag mean yaw %v, want 1.1", mathx.Mean(yaws))
	}
}

func TestSuiteDeterminism(t *testing.T) {
	a, b := NewSuite(5), NewSuite(5)
	s := sim.State{Att: mathx.QuatIdentity(), Pos: mathx.V3(1, 2, 3)}
	for i := 0; i < 50; i++ {
		if a.IMU.Sample(s, mathx.Vec3{}) != b.IMU.Sample(s, mathx.Vec3{}) {
			t.Fatal("same-seed IMUs diverge")
		}
		if a.GPS.Sample(s) != b.GPS.Sample(s) {
			t.Fatal("same-seed GPS diverge")
		}
	}
}
