package propulsion

import (
	"math"
	"testing"
	"testing/quick"

	"dronedse/units"
)

func TestIdealInducedPower(t *testing.T) {
	// Doubling thrust raises ideal power by 2^1.5.
	a := IdealInducedPower(5, 0.05, units.AirDensity)
	b := IdealInducedPower(10, 0.05, units.AirDensity)
	if math.Abs(b/a-math.Pow(2, 1.5)) > 1e-9 {
		t.Errorf("power scaling = %v, want 2^1.5", b/a)
	}
	// Larger disks need less power for the same thrust.
	small := IdealInducedPower(5, 0.01, units.AirDensity)
	large := IdealInducedPower(5, 0.1, units.AirDensity)
	if large >= small {
		t.Error("disk loading effect inverted")
	}
	if IdealInducedPower(0, 0.05, units.AirDensity) != 0 {
		t.Error("zero thrust should need zero power")
	}
	if IdealInducedPower(5, 0, units.AirDensity) != 0 {
		t.Error("degenerate disk should return 0")
	}
}

func TestIdealInducedPowerSanity(t *testing.T) {
	// A 450 mm drone (10" props) hovering at 1.4 kg total: per rotor
	// 3.43 N on a 0.0507 m^2 disk → ~18 W ideal, ~150 W electrical total.
	tN := units.GramsToNewtons(1400) / 4
	p := IdealInducedPower(tN, units.DiskArea(units.InchToMeter(10)), units.AirDensity)
	if p < 12 || p > 25 {
		t.Errorf("per-rotor ideal hover power = %v W, want ~18 W", p)
	}
	elec := 4 * ElectricalPower(tN, units.InchToMeter(10), DefaultEfficiencies())
	if elec < 100 || elec > 220 {
		t.Errorf("total electrical hover power = %v W, want ~130-160 W (paper's drone: 130 W)", elec)
	}
}

func TestMotorCurrent(t *testing.T) {
	eff := DefaultEfficiencies()
	tN := units.GramsToNewtons(700)
	i3s := MotorCurrent(tN, units.InchToMeter(10), units.CellsToVoltage(3), eff)
	i6s := MotorCurrent(tN, units.InchToMeter(10), units.CellsToVoltage(6), eff)
	if math.Abs(i3s/i6s-2) > 1e-9 {
		t.Errorf("current ratio = %v, want 2 (voltage halves current)", i3s/i6s)
	}
	if MotorCurrent(tN, 0.254, 0, eff) != 0 {
		t.Error("zero voltage should yield zero current")
	}
}

func TestRotorThrustTorque(t *testing.T) {
	r := DesignRotor(units.InchToMeter(10), units.GramsToNewtons(1400))
	// at MaxOmega*0.85 the rotor produces its design max thrust
	got := r.Thrust(r.MaxOmega * 0.85)
	want := units.GramsToNewtons(1400)
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("design thrust = %v, want %v", got, want)
	}
	// torque positive and much smaller than thrust*arm scale
	if r.Torque(r.MaxOmega) <= 0 {
		t.Error("torque must be positive at speed")
	}
	// clamping
	if r.Thrust(r.MaxOmega*2) != r.Thrust(r.MaxOmega) {
		t.Error("over-speed not clamped")
	}
	if r.Thrust(-5) != 0 {
		t.Error("negative speed should clamp to zero thrust")
	}
}

func TestOmegaForThrustInverse(t *testing.T) {
	r := DesignRotor(units.InchToMeter(5), 10)
	f := func(frac float64) bool {
		frac = math.Abs(math.Mod(frac, 1))
		tN := frac * 10
		w := r.OmegaForThrust(tN)
		return math.Abs(r.Thrust(w)-tN) < 1e-9*(1+tN)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if r.OmegaForThrust(-1) != 0 {
		t.Error("negative thrust should give zero speed")
	}
}

func TestDesignRotorTimeConstants(t *testing.T) {
	racing := DesignRotor(units.InchToMeter(2), 3)
	lifter := DesignRotor(units.InchToMeter(20), 60)
	if racing.TimeConstant >= lifter.TimeConstant {
		t.Error("large rotors must respond slower (the physics limit of §2.1.3-D)")
	}
	if racing.TimeConstant < 0.005 || lifter.TimeConstant > 0.2 {
		t.Errorf("time constants implausible: %v / %v", racing.TimeConstant, lifter.TimeConstant)
	}
}

func TestKvForDesignTrend(t *testing.T) {
	// Figure 9 annotations: tiny props at 1S need extreme Kv, 20" at 6S
	// need low Kv.
	tiny := KvForDesign(units.GramsToNewtons(100), units.InchToMeter(1), units.CellsToVoltage(1))
	big := KvForDesign(units.GramsToNewtons(3000), units.InchToMeter(20), units.CellsToVoltage(6))
	if tiny < 10000 {
		t.Errorf("1\"/1S Kv = %v, want >10000", tiny)
	}
	if big > 2000 {
		t.Errorf("20\"/6S Kv = %v, want <2000", big)
	}
	if KvForDesign(1, 0.1, 0) != 0 {
		t.Error("zero voltage should give zero Kv")
	}
}

func TestRequiredRPMScale(t *testing.T) {
	// 10" prop lifting 350 g should spin in the low thousands of RPM.
	rpm := RequiredRPM(units.GramsToNewtons(350), units.InchToMeter(10))
	if rpm < 2000 || rpm > 9000 {
		t.Errorf("10\" RPM = %v, want hobby-typical range", rpm)
	}
	// Smaller props need far higher RPM for the same thrust.
	rpmSmall := RequiredRPM(units.GramsToNewtons(350), units.InchToMeter(3))
	if rpmSmall <= rpm*2 {
		t.Errorf("3\" RPM = %v, should be much higher than 10\" %v", rpmSmall, rpm)
	}
}

func TestLoadFractions(t *testing.T) {
	if HoverLoadFraction < 0.20 || HoverLoadFraction > 0.30 {
		t.Error("hover load must be in the paper's 20-30% band")
	}
	if ManeuverLoadFraction < 0.60 || ManeuverLoadFraction > 0.70 {
		t.Error("maneuver load must be in the paper's 60-70% band")
	}
}

// TestPowerModelMatchesElectricalPower pins the precomputed model to the
// per-call expression it replaced, IdealInducedPower over the efficiency
// chain, bit for bit, across thrusts on and off the induced-power guard,
// propellers and efficiency chains (a zero chain included).
func TestPowerModelMatchesElectricalPower(t *testing.T) {
	thrusts := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 1e-9, 0.37, 2.6, 5.25, 13, 80, 1e12, math.Inf(1), math.NaN()}
	for i := 0; i < 2000; i++ {
		thrusts = append(thrusts, float64(i)*0.0137)
	}
	for _, d := range []float64{0, 0.127, units.InchToMeter(10), 0.3302} {
		for _, eff := range []Efficiencies{DefaultEfficiencies(), {FigureOfMerit: 0.6, Motor: 0.8, ESC: 0.93}, {}} {
			m := NewPowerModel(d, eff)
			for _, tN := range thrusts {
				got, want := m.ElectricalPower(tN), IdealInducedPower(tN, units.DiskArea(d), units.AirDensity)/eff.chain()
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("d=%v eff=%+v T=%v: model %v, per-call expression %v", d, eff, tN, got, want)
				}
			}
		}
	}
}
