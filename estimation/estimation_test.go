package estimation

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/units"
)

func TestAttitudeFilterConvergesFromWrongInit(t *testing.T) {
	truth := sim.State{Att: mathx.QuatFromEuler(0.2, -0.1, 0.8)}
	suite := new(sensors.Suite)
	suite.Init(1)
	imu, mag := suite.IMU, suite.Mag
	f := new(AttitudeFilter)
	f.init()
	dt := 1.0 / 200
	for i := 0; i < 200*40; i++ {
		s := imu.Sample(truth, mathx.Vec3{})
		f.PredictGyro(s.Gyro, dt)
		f.CorrectAccel(s.Accel, dt)
		if i%20 == 0 {
			f.CorrectYaw(mag.SampleYaw(truth), dt*20)
		}
	}
	if errDeg := f.Attitude().AngleTo(truth.Att) * 180 / math.Pi; errDeg > 3 {
		t.Errorf("attitude error after 40 s = %.2f deg", errDeg)
	}
}

func TestAttitudeFilterTracksRotation(t *testing.T) {
	f := new(AttitudeFilter)
	f.init()
	dt := 1.0 / 200
	truthAtt := mathx.QuatIdentity()
	omega := mathx.V3(0, 0, 0.5)
	for i := 0; i < 200*4; i++ {
		truthAtt = truthAtt.Integrate(omega, dt)
		f.PredictGyro(omega, dt) // noiseless gyro
	}
	if err := f.Attitude().AngleTo(truthAtt); err > 0.01 {
		t.Errorf("gyro-only tracking error = %v rad", err)
	}
}

func TestAccelCorrectionGatedDuringManeuvers(t *testing.T) {
	f := new(AttitudeFilter)
	f.init()
	before := f.Attitude()
	// 3g specific force: must be ignored (not gravity).
	f.CorrectAccel(mathx.V3(3*units.Gravity, 0, 0), 0.1)
	if f.Attitude() != before {
		t.Error("accel correction applied during a 3g maneuver")
	}
}

func TestWrapAngle(t *testing.T) {
	if got := wrapAngle(3 * math.Pi); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("wrapAngle(3pi) = %v", got)
	}
	if got := wrapAngle(-3 * math.Pi); math.Abs(got+math.Pi) > 1e-9 {
		t.Errorf("wrapAngle(-3pi) = %v", got)
	}
}

func TestEKFStaticConvergence(t *testing.T) {
	est := new(Estimator)
	est.Init()
	suite := new(sensors.Suite)
	suite.Init(1)
	imu, gps, baro := suite.IMU, suite.GPS, suite.Baro
	truth := sim.State{Pos: mathx.V3(3, -2, 7), Att: mathx.QuatIdentity()}
	dt := 1.0 / 200
	tm := 0.0
	for i := 0; i < 200*30; i++ {
		tm += dt
		est.OnIMU(imu.Sample(truth, mathx.Vec3{}), dt)
		if gps.Due(tm) {
			est.OnGPS(gps.Sample(truth))
		}
		if baro.Due(tm) {
			est.OnBaro(baro.SampleAltitude(truth))
		}
	}
	if err := est.Pos.Position().Sub(truth.Pos).Norm(); err > 0.5 {
		t.Errorf("static position error = %v m", err)
	}
	if v := est.Pos.Velocity().Norm(); v > 0.15 {
		t.Errorf("static velocity estimate = %v m/s", v)
	}
}

func TestEKFCovarianceShrinks(t *testing.T) {
	k := new(PosVelEKF)
	k.init()
	before := k.p.At(0, 0)
	k.UpdateGPS(sensors.GPSSample{Pos: mathx.V3(1, 2, 3)}, 0.8, 0.1)
	after := k.p.At(0, 0)
	if after >= before {
		t.Errorf("covariance did not shrink on update: %v -> %v", before, after)
	}
}

func TestEKFPredictGrowsUncertainty(t *testing.T) {
	k := new(PosVelEKF)
	k.init()
	k.UpdateGPS(sensors.GPSSample{}, 0.8, 0.1) // tighten first
	before := k.p.At(0, 0)
	for i := 0; i < 100; i++ {
		k.Predict(mathx.Vec3{}, 0.01)
	}
	if k.p.At(0, 0) <= before {
		t.Error("dead-reckoning must grow position uncertainty")
	}
	// zero-dt predict is a no-op
	c := k.p.At(0, 0)
	k.Predict(mathx.Vec3{}, 0)
	if k.p.At(0, 0) != c {
		t.Error("zero-dt predict changed covariance")
	}
}

func TestEKFTracksConstantVelocity(t *testing.T) {
	est := new(Estimator)
	est.Init()
	suite := new(sensors.Suite)
	suite.Init(2)
	imu, gps := suite.IMU, suite.GPS
	dt := 1.0 / 200
	tm := 0.0
	vel := mathx.V3(2, -1, 0.5)
	for i := 0; i < 200*20; i++ {
		tm += dt
		truth := sim.State{Pos: vel.Scale(tm), Vel: vel, Att: mathx.QuatIdentity()}
		est.OnIMU(imu.Sample(truth, mathx.Vec3{}), dt)
		if gps.Due(tm) {
			est.OnGPS(gps.Sample(truth))
		}
	}
	if err := est.Pos.Velocity().Sub(vel).Norm(); err > 0.2 {
		t.Errorf("velocity error = %v m/s", err)
	}
	if err := est.Pos.Position().Sub(vel.Scale(tm)).Norm(); err > 1.0 {
		t.Errorf("position error = %v m", err)
	}
}

func TestEKFBaroOnlyFixesAltitude(t *testing.T) {
	k := new(PosVelEKF)
	k.init()
	for i := 0; i < 100; i++ {
		k.UpdateBaro(9, 0.15)
	}
	if math.Abs(k.Position().Z-9) > 0.2 {
		t.Errorf("baro-only altitude = %v, want ~9", k.Position().Z)
	}
	if math.Abs(k.Position().X) > 1e-9 {
		t.Error("baro update must not touch horizontal position")
	}
}

// TestEKFFullStackInFlight closes the loop: the estimator running on the
// Table 2a sensor suite against the real simulated plant keeps its error
// bounded during a hover.
func TestEKFFullStackInFlight(t *testing.T) {
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q.Teleport(mathx.V3(0, 0, 8))
	h := q.HoverThrustPerMotorN()
	q.CommandThrusts([4]float64{h, h, h, h})
	suite := new(sensors.Suite)
	suite.Init(11)
	est := new(Estimator)
	est.Init()
	est.Pos.UpdateGPS(sensors.GPSSample{Pos: mathx.V3(0, 0, 8)}, 0.1, 0.1) // init fix
	prevVel := q.State().Vel
	dt := 1e-3
	worst := 0.0
	for i := 0; i < 15000; i++ {
		q.Step(dt)
		s := q.State()
		now := q.Time()
		accel := s.Vel.Sub(prevVel).Scale(1 / dt)
		prevVel = s.Vel
		if suite.IMU.Due(now) {
			est.OnIMU(suite.IMU.Sample(s, accel), 1/suite.IMU.RateHz)
		}
		if suite.GPS.Due(now) {
			est.OnGPS(suite.GPS.Sample(s))
		}
		if suite.Baro.Due(now) {
			est.OnBaro(suite.Baro.SampleAltitude(s))
		}
		if suite.Mag.Due(now) {
			est.OnMag(suite.Mag.SampleYaw(s), 1/suite.Mag.RateHz)
		}
		if i > 5000 { // after convergence
			if e := est.Pos.Position().Sub(s.Pos).Norm(); e > worst {
				worst = e
			}
		}
	}
	if worst > 1.0 {
		t.Errorf("worst in-flight estimation error = %v m", worst)
	}
}
