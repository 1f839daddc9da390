// Package sensors models the on-board acquisition suite at the data
// frequencies of Table 2a: accelerometer and gyroscope at 100-200 Hz,
// magnetometer at 10 Hz, barometer at 10-20 Hz, and GPS at 1-40 Hz, each
// with bias and Gaussian noise. The estimator (dronedse/estimation) fuses
// these exactly as the shared-libraries layer of Figure 5 does.
package sensors

import (
	"math/rand"

	"dronedse/mathx"
	"dronedse/sim"
	"dronedse/units"
)

// Clocked gates a sensor to its sample rate.
type Clocked struct {
	RateHz float64
	last   float64
	primed bool
	// period caches 1/RateHz, computed when RateHz was periodHz; it is
	// refreshed when RateHz changes, so the per-tick Due pays no division.
	period, periodHz float64
}

// Period returns the sample period 1/RateHz.
func (c *Clocked) Period() float64 {
	if c.RateHz != c.periodHz || c.period == 0 {
		c.period, c.periodHz = 1/c.RateHz, c.RateHz
	}
	return c.period
}

// Due reports whether a new sample is available at time t and consumes the
// tick when it is.
func (c *Clocked) Due(t float64) bool {
	if c.RateHz <= 0 {
		return false
	}
	if !c.primed || t-c.last >= c.Period()-1e-12 {
		c.last = t
		c.primed = true
		return true
	}
	return false
}

// IMU is the 6-axis inertial measurement unit (§2.1.3-B lists one or two per
// flight controller).
type IMU struct {
	Clocked
	GyroNoiseStd  float64 // rad/s
	GyroBias      mathx.Vec3
	AccelNoiseStd float64 // m/s^2
	AccelBias     mathx.Vec3
	rng           *rand.Rand
}

// init (re)starts u at rateHz with typical MEMS noise and biases drawn
// from seed.
func (u *IMU) init(rateHz float64, seed int64) {
	r := mathx.Reseed(u.rng, seed)
	*u = IMU{
		Clocked:       Clocked{RateHz: rateHz},
		GyroNoiseStd:  0.003,
		AccelNoiseStd: 0.05,
		GyroBias:      mathx.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(0.002),
		AccelBias:     mathx.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(0.02),
		rng:           r,
	}
}

// IMUSample is one gyro+accel reading.
type IMUSample struct {
	// Gyro is the body angular rate (rad/s).
	Gyro mathx.Vec3
	// Accel is the specific force in the body frame (m/s^2): at rest it
	// reads +g along body Z.
	Accel mathx.Vec3
}

// Sample reads the IMU from the true state. trueAccelWorld is the drone's
// world-frame acceleration (excluding gravity).
func (u *IMU) Sample(s sim.State, trueAccelWorld mathx.Vec3) IMUSample {
	n := func(std float64) float64 { return u.rng.NormFloat64() * std }
	gyro := s.Omega.Add(u.GyroBias).
		Add(mathx.V3(n(u.GyroNoiseStd), n(u.GyroNoiseStd), n(u.GyroNoiseStd)))
	// Specific force = R^T (a + g ẑ).
	f := s.Att.RotateInv(trueAccelWorld.Add(mathx.V3(0, 0, units.Gravity)))
	accel := f.Add(u.AccelBias).
		Add(mathx.V3(n(u.AccelNoiseStd), n(u.AccelNoiseStd), n(u.AccelNoiseStd)))
	return IMUSample{Gyro: gyro, Accel: accel}
}

// Magnetometer reads heading at 10 Hz (Table 2a).
type Magnetometer struct {
	Clocked
	NoiseStd float64 // rad
	rng      *rand.Rand
}

// init (re)starts m at rateHz with its noise source reseeded from seed.
func (m *Magnetometer) init(rateHz float64, seed int64) {
	*m = Magnetometer{Clocked: Clocked{RateHz: rateHz}, NoiseStd: 0.02, rng: mathx.Reseed(m.rng, seed)}
}

// SampleYaw returns the measured yaw (rad).
func (m *Magnetometer) SampleYaw(s sim.State) float64 {
	_, _, yaw := s.Att.Euler()
	return yaw + m.rng.NormFloat64()*m.NoiseStd
}

// Barometer reads altitude at 10-20 Hz (Table 2a).
type Barometer struct {
	Clocked
	NoiseStd float64 // m
	Bias     float64
	rng      *rand.Rand
}

// init (re)starts b at rateHz with a bias and noise source drawn from seed.
func (b *Barometer) init(rateHz float64, seed int64) {
	r := mathx.Reseed(b.rng, seed)
	*b = Barometer{Clocked: Clocked{RateHz: rateHz}, NoiseStd: 0.15, Bias: r.NormFloat64() * 0.1, rng: r}
}

// SampleAltitude returns the measured altitude (m).
func (b *Barometer) SampleAltitude(s sim.State) float64 {
	return s.Pos.Z + b.Bias + b.rng.NormFloat64()*b.NoiseStd
}

// GPS reads horizontal position and velocity at 1-40 Hz (Table 2a).
type GPS struct {
	Clocked
	PosNoiseStd float64 // m
	VelNoiseStd float64 // m/s
	rng         *rand.Rand
}

// init (re)starts g at rateHz with its noise source reseeded from seed.
func (g *GPS) init(rateHz float64, seed int64) {
	*g = GPS{Clocked: Clocked{RateHz: rateHz}, PosNoiseStd: 0.8, VelNoiseStd: 0.1, rng: mathx.Reseed(g.rng, seed)}
}

// GPSSample is one position/velocity fix.
type GPSSample struct {
	Pos mathx.Vec3
	Vel mathx.Vec3
}

// Sample returns a fix from the true state.
func (g *GPS) Sample(s sim.State) GPSSample {
	n := func(std float64) float64 { return g.rng.NormFloat64() * std }
	return GPSSample{
		Pos: s.Pos.Add(mathx.V3(n(g.PosNoiseStd), n(g.PosNoiseStd), n(g.PosNoiseStd*1.5))),
		Vel: s.Vel.Add(mathx.V3(n(g.VelNoiseStd), n(g.VelNoiseStd), n(g.VelNoiseStd))),
	}
}

// Sensor names the FaultView interface keys on.
const (
	SensorIMU  = "imu"
	SensorMag  = "mag"
	SensorBaro = "baro"
	SensorGPS  = "gps"
)

// FaultState describes one sensor's instantaneous fault condition. The zero
// value is nominal.
type FaultState struct {
	// Dropout loses the sample entirely (the bus went quiet).
	Dropout bool
	// Stuck repeats the last delivered value instead of sampling anew (a
	// frozen DMA buffer). A stuck sensor that never delivered behaves as a
	// dropout.
	Stuck bool
	// Bias is an additive offset injected into the delivered sample
	// (bias-jump faults). Scalar sensors read the X component. IMU faults
	// bias the accelerometer axes.
	Bias mathx.Vec3
}

// FaultView answers per-sensor fault queries at sample time. Fault
// injectors (package faultx) implement it; a nil view means nominal
// operation, and a view reporting zero FaultStates must leave the sampled
// values — including the noise RNG stream — untouched.
type FaultView interface {
	SensorFault(sensor string, t float64) FaultState
}

// Suite bundles the Table 2a sensor set at its reference rates.
type Suite struct {
	IMU  *IMU
	Mag  *Magnetometer
	Baro *Barometer
	GPS  *GPS

	// Faults, when non-nil, is consulted by the Sample* suite methods on
	// every due sample; it gates dropout/stuck/bias faults per sensor.
	Faults FaultView

	// held last-delivered samples, replayed by stuck faults.
	lastIMU    IMUSample
	lastIMUOK  bool
	lastGPS    GPSSample
	lastGPSOK  bool
	lastBaro   float64
	lastBaroOK bool
	lastYaw    float64
	lastYawOK  bool
}

// Init (re)initialises s in place as the default suite: IMU 200 Hz,
// magnetometer 10 Hz, barometer 15 Hz, GPS 5 Hz. The four sensors restart at
// those reference rates with their noise sources reseeded from seed, no
// fault view is installed and no sample is held.
func (s *Suite) Init(seed int64) {
	imu, mag, baro, gps := s.IMU, s.Mag, s.Baro, s.GPS
	if imu == nil {
		imu = new(IMU)
	}
	if mag == nil {
		mag = new(Magnetometer)
	}
	if baro == nil {
		baro = new(Barometer)
	}
	if gps == nil {
		gps = new(GPS)
	}
	imu.init(200, seed)
	mag.init(10, seed+1)
	baro.init(15, seed+2)
	gps.init(5, seed+3)
	*s = Suite{IMU: imu, Mag: mag, Baro: baro, GPS: gps}
}

// fault returns the active fault state for a sensor, nominal when no view
// is installed.
func (s *Suite) fault(name string, t float64) FaultState {
	if s.Faults == nil {
		return FaultState{}
	}
	return s.Faults.SensorFault(name, t)
}

// SampleIMU reads the IMU if a sample is due at t, applying any installed
// faults. ok is false when no sample is due or the sample dropped out.
func (s *Suite) SampleIMU(t float64, st sim.State, trueAccelWorld mathx.Vec3) (IMUSample, bool) {
	if !s.IMU.Due(t) {
		return IMUSample{}, false
	}
	f := s.fault(SensorIMU, t)
	if f.Dropout || (f.Stuck && !s.lastIMUOK) {
		return IMUSample{}, false
	}
	var sm IMUSample
	if f.Stuck {
		sm = s.lastIMU
	} else {
		sm = s.IMU.Sample(st, trueAccelWorld)
		if f.Bias != (mathx.Vec3{}) {
			sm.Accel = sm.Accel.Add(f.Bias)
		}
	}
	s.lastIMU, s.lastIMUOK = sm, true
	return sm, true
}

// SampleGPS reads a GPS fix if one is due at t, applying any installed
// faults.
func (s *Suite) SampleGPS(t float64, st sim.State) (GPSSample, bool) {
	if !s.GPS.Due(t) {
		return GPSSample{}, false
	}
	f := s.fault(SensorGPS, t)
	if f.Dropout || (f.Stuck && !s.lastGPSOK) {
		return GPSSample{}, false
	}
	var fix GPSSample
	if f.Stuck {
		fix = s.lastGPS
	} else {
		fix = s.GPS.Sample(st)
		if f.Bias != (mathx.Vec3{}) {
			fix.Pos = fix.Pos.Add(f.Bias)
		}
	}
	s.lastGPS, s.lastGPSOK = fix, true
	return fix, true
}

// SampleBaro reads the barometric altitude if one is due at t, applying any
// installed faults.
func (s *Suite) SampleBaro(t float64, st sim.State) (float64, bool) {
	if !s.Baro.Due(t) {
		return 0, false
	}
	f := s.fault(SensorBaro, t)
	if f.Dropout || (f.Stuck && !s.lastBaroOK) {
		return 0, false
	}
	var alt float64
	if f.Stuck {
		alt = s.lastBaro
	} else {
		alt = s.Baro.SampleAltitude(st)
		if f.Bias.X != 0 {
			alt += f.Bias.X
		}
	}
	s.lastBaro, s.lastBaroOK = alt, true
	return alt, true
}

// SampleMagYaw reads the magnetometer yaw if one is due at t, applying any
// installed faults.
func (s *Suite) SampleMagYaw(t float64, st sim.State) (float64, bool) {
	if !s.Mag.Due(t) {
		return 0, false
	}
	f := s.fault(SensorMag, t)
	if f.Dropout || (f.Stuck && !s.lastYawOK) {
		return 0, false
	}
	var yaw float64
	if f.Stuck {
		yaw = s.lastYaw
	} else {
		yaw = s.Mag.SampleYaw(st)
		if f.Bias.X != 0 {
			yaw += f.Bias.X
		}
	}
	s.lastYaw, s.lastYawOK = yaw, true
	return yaw, true
}

// Table2a returns the paper's sensor data-frequency table as (sensor,
// frequency band) rows for the harness.
func Table2a() []struct {
	Sensor string
	LoHz   float64
	HiHz   float64
} {
	return []struct {
		Sensor string
		LoHz   float64
		HiHz   float64
	}{
		{"Accelerometer", 100, 200},
		{"Gyroscope", 100, 200},
		{"Magnetometer", 10, 10},
		{"Barometer", 10, 20},
		{"GPS", 1, 40},
	}
}
