package power

import (
	"math"
	"testing"
)

func TestValidatePack(t *testing.T) {
	if err := ValidatePack(0, 3000, 20); err == nil {
		t.Error("zero cells accepted")
	}
	if err := ValidatePack(3, -1, 20); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := ValidatePack(3, 3000, 0); err == nil {
		t.Error("zero C rating accepted")
	}
	if err := ValidatePack(3, 3000, 20); err != nil {
		t.Errorf("valid pack rejected: %v", err)
	}
}

func TestPackVoltageCurve(t *testing.T) {
	p := new(Pack)
	p.Init(3, 3000, 20)
	full := p.Voltage()
	if math.Abs(full-12.6) > 0.01 {
		t.Errorf("full 3S voltage = %v, want 12.6 (4.2/cell)", full)
	}
	// Drain to the limit; voltage must fall but stay above 3.3 V/cell.
	for !p.Drained() {
		p.Draw(30, 1)
	}
	v := p.Voltage()
	if v >= full {
		t.Error("voltage did not sag under drain")
	}
	if v < 3.3*3 {
		t.Errorf("voltage fell below cutoff floor: %v", v)
	}
}

func TestPackDrainLimit(t *testing.T) {
	p := new(Pack)
	p.Init(3, 1000, 30)
	// 1000 mAh at 10 A drains the 85% limit in 0.085 h = 306 s ideally;
	// at 10C the Peukert factor 10^0.05 ≈ 1.12 shortens it to ~273 s.
	secs := 0
	for !p.Drained() {
		p.Draw(10, 1)
		secs++
		if secs > 10000 {
			t.Fatal("never drained")
		}
	}
	if secs < 260 || secs > 290 {
		t.Errorf("drained after %d s, want ~273 s with Peukert at 10C", secs)
	}
	if p.StateOfCharge() > 0.16 || p.StateOfCharge() < 0.13 {
		t.Errorf("SoC at drain limit = %v, want ~0.15", p.StateOfCharge())
	}
}

func TestPackCurrentClamp(t *testing.T) {
	p := new(Pack)
	p.Init(3, 1000, 10) // ceiling 10 A
	vBefore := p.Voltage()
	w := p.Draw(50, 1)
	if w > 10*vBefore+1e-9 {
		t.Errorf("delivered %v W, beyond the C-rating ceiling", w)
	}
	if p.Draw(-5, 1) != 0 {
		t.Error("negative current should deliver nothing")
	}
}

func TestPackUsableEnergy(t *testing.T) {
	p := new(Pack)
	p.Init(3, 3000, 20)
	want := 3.0 * 11.1 * 0.85
	if math.Abs(p.UsableEnergyWh()-want) > 1e-9 {
		t.Errorf("usable energy = %v, want %v", p.UsableEnergyWh(), want)
	}
}

func TestPackEnergyConservation(t *testing.T) {
	p := new(Pack)
	p.Init(3, 3000, 30)
	total := 0.0
	dt := 1.0
	for !p.Drained() {
		total += p.Draw(20, dt) * dt / 3600 // Wh
	}
	// Delivered energy should be near usable energy (sagging voltage means
	// somewhat less than nominal×0.85; allow a generous band).
	if total < p.UsableEnergyWh()*0.8 || total > p.UsableEnergyWh()*1.25 {
		t.Errorf("delivered %v Wh vs usable %v Wh", total, p.UsableEnergyWh())
	}
}

func TestDrawPower(t *testing.T) {
	p := new(Pack)
	p.Init(3, 3000, 30)
	got := p.DrawPower(100, 1)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("DrawPower delivered %v, want 100", got)
	}
}

func TestReset(t *testing.T) {
	p := new(Pack)
	p.Init(3, 1000, 30)
	p.Draw(30, 60)
	p.Init(3, 1000, 30)
	if p.StateOfCharge() != 1 {
		t.Error("Init did not restore charge")
	}
}

func TestPeukertEffect(t *testing.T) {
	// Same energy demand at 1C vs 6C: the high-current pack drains
	// noticeably sooner (Peukert), the low-current one barely differs
	// from ideal.
	gentle := new(Pack)
	gentle.Init(3, 3000, 30)
	hard := new(Pack)
	hard.Init(3, 3000, 30)
	secsAt := func(p *Pack, amps float64) int {
		s := 0
		for !p.Drained() && s < 100000 {
			p.Draw(amps, 1)
			s++
		}
		return s
	}
	tGentle := secsAt(gentle, 3) // 1C
	tHard := secsAt(hard, 18)    // 6C
	idealGentle := 0.85 * 3.0 / 3 * 3600
	idealHard := 0.85 * 3.0 / 18 * 3600
	if float64(tGentle) < idealGentle*0.97 {
		t.Errorf("1C drain %d s, ideal %.0f s: Peukert should be negligible at 1C", tGentle, idealGentle)
	}
	if float64(tHard) > idealHard*0.95 {
		t.Errorf("6C drain %d s vs ideal %.0f s: Peukert should cost >5%%", tHard, idealHard)
	}
	// Disabling the effect restores ideal behavior.
	off := new(Pack)
	off.Init(3, 3000, 30)
	off.PeukertK = 0
	tOff := secsAt(off, 18)
	if math.Abs(float64(tOff)-idealHard) > 3 {
		t.Errorf("PeukertK=0 drain %d s, want ideal %.0f s", tOff, idealHard)
	}
}

// TestVoltageMemoBitExact pins the Voltage memo: repeated calls between
// state changes return the cached value, and every state change that feeds
// the sag curve (charge drawn, injected sag, injected fade, reset) yields
// exactly the value a fresh pack at the same state computes.
func TestVoltageMemoBitExact(t *testing.T) {
	fresh := func(usedFrac, sag, fade float64) float64 {
		p := new(Pack)
		p.Init(3, 3000, 30)
		p.SetFault(sag, fade)
		p.usedMah = usedFrac * p.effCapacityMah()
		return p.Voltage()
	}
	p := new(Pack)
	p.Init(3, 3000, 30)
	if v1, v2 := p.Voltage(), p.Voltage(); v1 != v2 {
		t.Fatalf("idle re-read changed: %v != %v", v1, v2)
	}
	for i := 0; i < 100; i++ {
		p.DrawPower(150, 1.0)
	}
	want := fresh(p.usedMah/p.effCapacityMah(), 0, 0)
	if got := p.Voltage(); got != want {
		t.Fatalf("after draw: memo %v != fresh %v", got, want)
	}
	p.SetFault(0.6, 0.1)
	want = fresh(p.usedMah/p.effCapacityMah(), 0.6, 0.1)
	if got := p.Voltage(); got != want {
		t.Fatalf("after fault: memo %v != fresh %v", got, want)
	}
	p.Init(3, 3000, 30)
	if got, want := p.Voltage(), fresh(0, 0, 0); got != want {
		t.Fatalf("after reset: memo %v != fresh %v", got, want)
	}
}
