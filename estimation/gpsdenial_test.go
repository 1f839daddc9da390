package estimation

import (
	"testing"

	"dronedse/mathx"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/units"
)

// TestGPSDenialCoastAndRecover is the graceful-degradation contract, table
// driven over denial lengths: while a GPS outage is declared the estimator
// must refuse GPS, grow its uncertainty monotonically at a rate covering
// the real dead-reckoning drift (bounded, not exploding), and once GPS
// returns it must re-converge within a fixed horizon.
//
// The synthetic truth is a hover at the origin; an uncorrected 0.35 m/s²
// accelerometer bias plays the attitude error that makes real coasting
// drift quadratically.
func TestGPSDenialCoastAndRecover(t *testing.T) {
	cases := []struct {
		name    string
		denialS float64
	}{
		{"short-2s", 2},
		{"medium-5s", 5},
		{"long-10s", 10},
	}
	const (
		dt       = 1.0 / 200
		denStart = 5.0
		recoverS = 2.0
	)
	bias := mathx.V3(0.25, -0.25, 0) // |bias| ≈ 0.35 m/s²
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := new(Estimator)
			e.Init()
			denEnd := denStart + tc.denialS
			endT := denEnd + recoverS
			prevUnc, maxCoastErr, uncAtDenialEnd := 0.0, 0.0, 0.0
			rejectedBefore := 0
			for step := 0; float64(step)*dt < endT; step++ {
				now := float64(step) * dt
				denied := now >= denStart && now < denEnd
				if denied != e.gpsOut {
					e.DeclareOutage(sensors.SensorGPS, denied)
					if denied {
						prevUnc = 0
						rejectedBefore = e.Rejected
					} else {
						uncAtDenialEnd = e.Pos.PositionUncertainty()
					}
				}
				accel := mathx.V3(0, 0, units.Gravity)
				if denied {
					accel = accel.Add(bias) // uncorrected error while coasting
				}
				e.OnIMU(sensors.IMUSample{Accel: accel}, dt)
				if step%20 == 0 { // 10 Hz GPS at the origin, denied or not
					e.OnGPS(sensors.GPSSample{})
				}
				if step%10 == 0 { // 20 Hz baro
					e.OnBaro(0)
				}
				if denied {
					unc := e.Pos.PositionUncertainty()
					if unc < prevUnc-1e-9 {
						t.Fatalf("uncertainty shrank while coasting at t=%.2f: %v -> %v", now, prevUnc, unc)
					}
					prevUnc = unc
					if errM := e.Pos.Position().Norm(); errM > maxCoastErr {
						maxCoastErr = errM
					}
				}
			}
			// GPS during the declared outage must be refused, and counted.
			if e.Rejected == rejectedBefore {
				t.Error("no GPS measurements were rejected during the declared outage")
			}
			// Coast error stays inside the drift envelope: 0.5·a·t² for
			// the injected bias, doubled for transient margin.
			bound := 0.5 * 0.35 * tc.denialS * tc.denialS * 2
			if bound < 1 {
				bound = 1
			}
			if maxCoastErr > bound {
				t.Errorf("coast error %.2f m exceeds drift envelope %.2f m", maxCoastErr, bound)
			}
			// The uncertainty signal must have covered a meaningful share
			// of the worst real error — it is the failsafe's health input.
			if uncAtDenialEnd < maxCoastErr/4 {
				t.Errorf("uncertainty %.2f m dishonestly small against %.2f m real error",
					uncAtDenialEnd, maxCoastErr)
			}
			// Re-convergence: after recoverS of restored GPS the estimate
			// must be back at the truth with confidence restored.
			if errM := e.Pos.Position().Norm(); errM > 0.5 {
				t.Errorf("position error %.2f m after %.0f s of restored GPS", errM, recoverS)
			}
			if unc := e.Pos.PositionUncertainty(); unc > uncAtDenialEnd/2 || unc > 2 {
				t.Errorf("uncertainty %.2f m did not re-converge (was %.2f m)", unc, uncAtDenialEnd)
			}
		})
	}
}

// convergeStatic runs the filter on clean measurements of a static truth.
func convergeStatic(k *PosVelEKF, truth sim.State, seconds float64) {
	suite := new(sensors.Suite)
	suite.Init(1)
	imu, gps, baro := suite.IMU, suite.GPS, suite.Baro
	dt := 1.0 / 200
	tm := 0.0
	for i := 0; i < int(seconds*200); i++ {
		tm += dt
		s := imu.Sample(truth, mathx.Vec3{})
		accel := mathx.QuatIdentity().Rotate(s.Accel).Sub(mathx.V3(0, 0, 9.80665))
		k.Predict(accel, dt)
		if gps.Due(tm) {
			k.UpdateGPS(gps.Sample(truth), 0.8, 0.1)
		}
		if baro.Due(tm) {
			k.UpdateBaro(baro.SampleAltitude(truth), 0.15)
		}
	}
}

func TestGPSDropoutDriftBounded(t *testing.T) {
	// GPS out for 30 s: the baro keeps altitude honest while horizontal
	// uncertainty grows — and the uncertainty signal must reflect it.
	k := new(PosVelEKF)
	k.init()
	truth := sim.State{Pos: mathx.V3(3, -2, 8), Att: mathx.QuatIdentity()}
	convergeStatic(k, truth, 20)
	sigmaBefore := k.PositionUncertainty()

	suite := new(sensors.Suite)
	suite.Init(4)
	imu, baro := suite.IMU, suite.Baro
	dt := 1.0 / 200
	tm := 0.0
	for i := 0; i < 200*30; i++ {
		tm += dt
		s := imu.Sample(truth, mathx.Vec3{})
		accel := mathx.QuatIdentity().Rotate(s.Accel).Sub(mathx.V3(0, 0, 9.80665))
		k.Predict(accel, dt)
		if baro.Due(tm) {
			k.UpdateBaro(baro.SampleAltitude(truth), 0.15)
		}
	}
	if k.PositionUncertainty() <= sigmaBefore*2 {
		t.Errorf("horizontal uncertainty did not grow during dropout: %v -> %v",
			sigmaBefore, k.PositionUncertainty())
	}
	// Altitude stays pinned by the barometer.
	if altErr := k.Position().Z - truth.Pos.Z; altErr > 0.5 || altErr < -0.5 {
		t.Errorf("altitude drifted %v m despite the barometer", altErr)
	}
}
