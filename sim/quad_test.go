package sim

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/propulsion"
	"dronedse/units"
)

func TestNewQuadValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.MassKg = 0
	if _, err := NewQuad(bad); err == nil {
		t.Error("zero mass accepted")
	}
	bad = DefaultConfig()
	bad.TWR = 1.0
	if _, err := NewQuad(bad); err == nil {
		t.Error("TWR 1 accepted")
	}
	if _, err := NewQuad(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestHoverEquilibrium(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 10))
	hover := q.HoverThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{hover, hover, hover, hover})
	for i := 0; i < 5000; i++ {
		q.Step(1e-3)
	}
	s := q.State()
	if math.Abs(s.Pos.Z-10) > 0.2 {
		t.Errorf("altitude drifted to %v under exact hover thrust", s.Pos.Z)
	}
	if s.Vel.Norm() > 0.1 {
		t.Errorf("velocity %v under hover", s.Vel)
	}
	if s.Omega.Norm() > 1e-6 {
		t.Errorf("spinning under symmetric thrust: %v", s.Omega)
	}
}

func TestFreeFall(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 100))
	q.CommandThrusts([NumMotors]float64{})
	for i := 0; i < 1000; i++ {
		q.Step(1e-3)
	}
	s := q.State()
	// After 1 s of free fall (ignoring the rotor spin-down transient and
	// drag): dropped ~4.9 m, vz ~ -9.8 m/s.
	if s.Pos.Z > 97 || s.Pos.Z < 93 {
		t.Errorf("free-fall altitude = %v, want ~95.1", s.Pos.Z)
	}
	if s.Vel.Z > -8 || s.Vel.Z < -11 {
		t.Errorf("free-fall speed = %v, want ~-9.5", s.Vel.Z)
	}
}

func TestDifferentialThrustRolls(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 50))
	h := q.HoverThrustPerMotorN()
	// More thrust on the right (negative y) motors => positive roll torque
	// about +x is Σ y_i t_i < 0 => rolls toward -x axis... assert it rolls
	// at all and in a consistent direction.
	q.CommandThrusts([NumMotors]float64{h * 0.9, h * 1.1, h * 0.9, h * 1.1})
	for i := 0; i < 300; i++ {
		q.Step(1e-3)
	}
	roll, pitch, _ := q.State().Att.Euler()
	if math.Abs(pitch) > math.Abs(roll) {
		t.Errorf("differential left/right thrust should roll, got roll=%v pitch=%v", roll, pitch)
	}
	if roll >= 0 {
		t.Errorf("right-heavy thrust must roll negative about +x (left side down), got %v", roll)
	}
}

func TestYawFromDiagonalThrust(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 50))
	h := q.HoverThrustPerMotorN()
	// Spin-matched diagonal pairs: boosting the +1 spin pair yaws one way.
	q.CommandThrusts([NumMotors]float64{h * 1.1, h * 0.9, h * 0.9, h * 1.1})
	for i := 0; i < 500; i++ {
		q.Step(1e-3)
	}
	if math.Abs(q.State().Omega.Z) < 0.05 {
		t.Errorf("diagonal differential should yaw, omega=%v", q.State().Omega)
	}
}

func TestTiltedThrustTranslates(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 50))
	// Lighter front motors briefly pitch the nose down; after thrust is
	// equalized the tilted thrust vector translates the drone along +x
	// (Figure 4e, Move/Pitch).
	h := q.HoverThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{h * 0.99, h * 0.99, h * 1.01, h * 1.01})
	for i := 0; i < 100; i++ {
		q.Step(1e-3)
	}
	q.CommandThrusts([NumMotors]float64{h, h, h, h})
	for i := 0; i < 1900; i++ {
		q.Step(1e-3)
	}
	_, pitch, _ := q.State().Att.Euler()
	if pitch <= 0 {
		t.Errorf("light-front thrust should pitch positive (nose down), got %v", pitch)
	}
	if q.State().Vel.X <= 0.1 {
		t.Errorf("nose-down pitch should translate +x, vel=%v", q.State().Vel)
	}
}

func TestGroundContact(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 2))
	q.CommandThrusts([NumMotors]float64{})
	for i := 0; i < 3000; i++ {
		q.Step(1e-3)
	}
	s := q.State()
	if s.Pos.Z != 0 {
		t.Errorf("did not land: z=%v", s.Pos.Z)
	}
	if !q.OnGround() {
		t.Error("OnGround false after landing without thrust")
	}
	if s.Vel.Norm() > 1e-9 {
		t.Errorf("moving on the ground: %v", s.Vel)
	}
}

func TestThrustClamp(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	max := q.MaxThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{1e9, -5, max / 2, max})
	q.Step(1e-3)
	th := q.MotorThrusts()
	if th[0] > max+1e-9 {
		t.Errorf("over-commanded motor thrust %v exceeds max %v", th[0], max)
	}
	if th[1] < 0 {
		t.Errorf("negative thrust %v", th[1])
	}
}

func TestRotorLagIsPhysical(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 10))
	max := q.MaxThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{max, max, max, max})
	q.Step(1e-3)
	th := q.MotorThrusts()
	hover := q.HoverThrustPerMotorN()
	// One millisecond after a max-thrust command the rotor must NOT have
	// reached it: the spin-up lag is the §2.1.3-D physical response floor.
	if th[0] > hover+0.5*(max-hover) {
		t.Errorf("rotor reached %v of commanded %v in 1 ms; lag missing", th[0], max)
	}
	if q.RotorTimeConstant() < 0.01 {
		t.Errorf("10\" rotor time constant %v s implausibly fast", q.RotorTimeConstant())
	}
}

func TestElectricalPowerScale(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 10))
	h := q.HoverThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{h, h, h, h})
	for i := 0; i < 2000; i++ {
		q.Step(1e-3)
	}
	p := q.ElectricalPowerW()
	// The paper's 1.07 kg drone: ~90-140 W hovering.
	if p < 70 || p > 160 {
		t.Errorf("hover electrical power = %v W, want ~90-140 W", p)
	}
	// The §3.2 flying load: total thrust over the TWR maximum.
	if lf := (q.thrustN[0] + q.thrustN[1] + q.thrustN[2] + q.thrustN[3]) / (4 * q.MaxThrustPerMotorN()); math.Abs(lf-0.5) > 0.05 {
		t.Errorf("hover load fraction = %v, want 0.5 at TWR 2", lf)
	}
}

func TestWindPushesDrone(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.SetEnvironment(WindyEnvironment(1, 8, 0))
	q.Teleport(mathx.V3(0, 0, 50))
	h := q.HoverThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{h, h, h, h})
	for i := 0; i < 3000; i++ {
		q.Step(1e-3)
	}
	if q.State().Vel.X < 0.5 {
		t.Errorf("8 m/s wind did not push the drone: vel=%v", q.State().Vel)
	}
}

func TestEnvironmentDeterminism(t *testing.T) {
	a := WindyEnvironment(7, 5, 3)
	b := WindyEnvironment(7, 5, 3)
	for i := 0; i < 100; i++ {
		t0 := float64(i) * 0.01
		if a.WindAt(t0) != b.WindAt(t0) {
			t.Fatal("same-seed environments diverge")
		}
	}
}

func TestAttitudeStaysUnit(t *testing.T) {
	q, _ := NewQuad(DefaultConfig())
	q.Teleport(mathx.V3(0, 0, 50))
	h := q.HoverThrustPerMotorN()
	q.CommandThrusts([NumMotors]float64{h * 1.2, h * 0.8, h, h})
	for i := 0; i < 10000; i++ {
		q.Step(1e-3)
		if n := q.State().Att.Norm(); math.Abs(n-1) > 1e-6 {
			t.Fatalf("attitude norm drifted to %v at step %d", n, i)
		}
	}
}

// TestElectricalPowerCacheInvalidation pins the per-step power cache: the
// cached value, evaluated with the per-propeller constants fixed in NewQuad,
// must match propulsion.ElectricalPower after every mutation that changes
// motor thrusts (Step, Teleport), and repeated reads between steps must
// return the identical bits.
func TestElectricalPowerCacheInvalidation(t *testing.T) {
	uncached := func(q *Quad) float64 {
		p := 0.0
		for _, tN := range q.MotorThrusts() {
			p += propulsion.ElectricalPower(tN, units.InchToMeter(q.cfg.PropInches), q.cfg.Eff)
		}
		return p
	}
	small := DefaultConfig()
	small.MassKg, small.WheelbaseMM, small.PropInches, small.TWR = 0.45, 250, 5, 3.5
	small.Eff = propulsion.Efficiencies{FigureOfMerit: 0.7, Motor: 0.85, ESC: 0.95}
	for _, cfg := range []Config{DefaultConfig(), small} {
		q, err := NewQuad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.ElectricalPowerW(), uncached(q); got != want {
			t.Fatalf("fresh quad: cached %v != uncached %v", got, want)
		}
		q.Teleport(mathx.V3(0, 0, 10))
		if got, want := q.ElectricalPowerW(), uncached(q); got != want {
			t.Fatalf("after teleport: cached %v != uncached %v", got, want)
		}
		hover := q.HoverThrustPerMotorN()
		q.CommandThrusts([NumMotors]float64{hover * 1.2, hover, hover, hover * 0.8})
		for i := 0; i < 50; i++ {
			q.Step(1e-3)
			if got, want := q.ElectricalPowerW(), uncached(q); got != want {
				t.Fatalf("step %d: cached %v != uncached %v", i, got, want)
			}
		}
		if a, b := q.ElectricalPowerW(), q.ElectricalPowerW(); a != b {
			t.Fatalf("re-read between steps changed: %v != %v", a, b)
		}
	}
}
