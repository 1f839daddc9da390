// Package power models the drone power-delivery system (§2.1.2): the LiPo
// battery pack with its drain limit, C-rating current ceiling and voltage
// sag, and the ESC conversion stage. The design-space core uses the static
// relationships; the flight simulator uses the stateful Pack to drain energy
// over a mission and produce the Figure 16b whole-drone power trace.
package power

import (
	"errors"
	"math"

	"dronedse/units"
)

// Pack is a stateful LiPo battery pack.
type Pack struct {
	Cells       int
	CapacityMah float64
	DischargeC  float64
	// PeukertK models the Peukert effect: at discharge currents above the
	// 1C reference, the effective charge consumed per amp rises as
	// (I/1C)^(K-1). LiPo chemistry is mild (1.03-1.10); zero disables the
	// effect. High-current racing drains deliver measurably less energy,
	// which is one reason the paper's short-flight ESC class exists.
	PeukertK float64
	// SagVolts is an injected pack-level voltage sag (fault injection: a
	// weak cell or a cold pack). Zero leaves the voltage model untouched.
	SagVolts float64
	// FadeFrac is an injected capacity fade in [0, 1): the fraction of
	// rated capacity lost to cell aging. Zero leaves the model untouched.
	FadeFrac float64
	// usedMah tracks consumed charge.
	usedMah float64

	// Voltage memo: the sag curve is a pure function of (usedMah, SagVolts,
	// FadeFrac). Every physics step drains charge, so the curve is evaluated
	// once per step; the memo serves the further reads within that step
	// (DrawPower's conversion, Draw's delivered power, telemetry) without
	// changing a returned bit.
	vUsed, vSag, vFade, vCached float64
	vValid                      bool
}

// ValidatePack reports whether a pack of the given cell count, capacity and
// C rating can be built: 1 to 12 cells, positive capacity and rating.
func ValidatePack(cells int, capacityMah, dischargeC float64) error {
	if cells < 1 || cells > 12 {
		return errors.New("power: cell count out of range")
	}
	if capacityMah <= 0 {
		return errors.New("power: non-positive capacity")
	}
	if dischargeC <= 0 {
		return errors.New("power: non-positive C rating")
	}
	return nil
}

// NewPack builds a pack; it validates the configuration.
func NewPack(cells int, capacityMah, dischargeC float64) (*Pack, error) {
	if err := ValidatePack(cells, capacityMah, dischargeC); err != nil {
		return nil, err
	}
	p := new(Pack)
	p.Init(cells, capacityMah, dischargeC)
	return p, nil
}

// Init re-initialises p in place as a full, fault-free pack of a
// configuration that passes ValidatePack.
func (p *Pack) Init(cells int, capacityMah, dischargeC float64) {
	*p = Pack{Cells: cells, CapacityMah: capacityMah, DischargeC: dischargeC, PeukertK: 1.05}
}

// NominalVoltage is the pack's nominal voltage (3.7 V/cell).
func (p *Pack) NominalVoltage() float64 { return units.CellsToVoltage(p.Cells) }

// Voltage returns the sagging pack voltage as a function of state of charge:
// 4.2 V/cell full, ~3.5 V/cell at the 85% drain limit, with the typical flat
// LiPo mid-curve.
func (p *Pack) Voltage() float64 {
	if p.vValid && p.vUsed == p.usedMah && p.vSag == p.SagVolts && p.vFade == p.FadeFrac {
		return p.vCached
	}
	soc := p.StateOfCharge()
	perCell := 3.3 + 0.9*socPow06(soc) // 4.2 at soc=1, steep near empty
	v := perCell * float64(p.Cells)
	if p.SagVolts != 0 {
		v -= p.SagVolts
		if floor := 3.0 * float64(p.Cells); v < floor {
			v = floor
		}
	}
	p.vUsed, p.vSag, p.vFade, p.vCached, p.vValid = p.usedMah, p.SagVolts, p.FadeFrac, v, true
	return v
}

// SetFault installs (or, with zeros, clears) an injected battery fault:
// a pack-level voltage sag in volts and a capacity fade fraction.
func (p *Pack) SetFault(sagVolts, fadeFrac float64) {
	if sagVolts < 0 {
		sagVolts = 0
	}
	if fadeFrac < 0 {
		fadeFrac = 0
	} else if fadeFrac > 0.95 {
		fadeFrac = 0.95
	}
	p.SagVolts, p.FadeFrac = sagVolts, fadeFrac
}

// effCapacityMah is the rated capacity after any injected fade.
func (p *Pack) effCapacityMah() float64 {
	if p.FadeFrac == 0 {
		return p.CapacityMah
	}
	return p.CapacityMah * (1 - p.FadeFrac)
}

// StateOfCharge returns the remaining fraction of rated capacity in [0,1].
func (p *Pack) StateOfCharge() float64 {
	s := 1 - p.usedMah/p.effCapacityMah()
	if s < 0 {
		return 0
	}
	return s
}

// UsableEnergyWh returns the mission-usable energy at nominal voltage,
// honoring the paper's 85% LiPoDrainLimit (and any injected capacity fade).
func (p *Pack) UsableEnergyWh() float64 {
	return units.MahToWh(p.effCapacityMah(), p.NominalVoltage()) * units.LiPoDrainLimit
}

// MaxContinuousCurrentA is the C-rating current ceiling.
func (p *Pack) MaxContinuousCurrentA() float64 {
	return units.CRatingMaxCurrent(p.CapacityMah, p.DischargeC)
}

// Drained reports whether the pack has hit the 85% drain limit: continuing
// past it damages LiPo chemistry (§2.1.2), so the autopilot must land.
func (p *Pack) Drained() bool {
	return p.usedMah >= p.effCapacityMah()*units.LiPoDrainLimit
}

// Draw consumes current (A) for dt seconds and returns the delivered power
// (W) at the present sagging voltage. Current beyond the C-rating ceiling is
// clamped — a real pack would sag and trip the ESCs.
func (p *Pack) Draw(currentA, dt float64) float64 {
	if currentA < 0 {
		currentA = 0
	}
	if max := p.MaxContinuousCurrentA(); currentA > max {
		currentA = max
	}
	v := p.Voltage()
	eff := currentA
	if p.PeukertK > 1 && currentA > 0 {
		ref := p.effCapacityMah() / 1000 // the 1C current
		if ratio := currentA / ref; ratio > 1 {
			eff = currentA * peukertPow(ratio, p.PeukertK-1)
		}
	}
	p.usedMah += eff * 1000 * dt / 3600
	return currentA * v
}

// socPow06 returns math.Pow(soc, 0.6) bit for bit, without Pow's
// bookkeeping. For y = 0.6 Go's pow splits y into yi = 1 and yf = 0.6-1,
// returning Ldexp(Exp(yf*Log(x))*x1, xe) with x = x1*2^xe; when the result
// is a normal number the power-of-two scaling is exact, so the product can be
// taken with x itself. That holds for soc in (2^-1000, 1]; anything else,
// including soc = 0, goes to math.Pow.
func socPow06(soc float64) float64 {
	if soc > 0x1p-1000 && soc <= 1 {
		return math.Exp((0.6-1)*math.Log(soc)) * soc
	}
	return math.Pow(soc, 0.6)
}

// peukertPow returns math.Pow(ratio, y) bit for bit for the Peukert
// exponent y = K-1. For 0 < y < 0.5 Go's pow has no integer part and
// returns Ldexp(Exp(y*Log(ratio)), 0), which is Exp(y*Log(ratio)) itself
// (at ratio = +Inf both are +Inf). y = 0.5 takes pow's Sqrt branch, so it
// and every other exponent, as well as any ratio not above 1 (NaN
// included), go to math.Pow.
func peukertPow(ratio, y float64) float64 {
	if y > 0 && y < 0.5 && ratio > 1 {
		return math.Exp(y * math.Log(ratio))
	}
	return math.Pow(ratio, y)
}

// DrawPower consumes energy at the requested electrical power (W) for dt
// seconds, converting through the present voltage, and returns the actual
// power delivered after the current clamp.
func (p *Pack) DrawPower(watts, dt float64) float64 {
	v := p.Voltage()
	if v <= 0 {
		return 0
	}
	return p.Draw(watts/v, dt)
}

// Reset restores a full charge.
func (p *Pack) Reset() { p.usedMah = 0 }

// ESCStage models the speed-controller conversion stage: efficiency and the
// switching frequency requirement (6 x rotor RPM electrical commutation,
// §3.1).
type ESCStage struct {
	Efficiency float64
}

// InputPower returns the battery-side power for a requested motor-side power.
func (e ESCStage) InputPower(motorW float64) float64 {
	if e.Efficiency <= 0 {
		return 0
	}
	return motorW / e.Efficiency
}

// RequiredSwitchingHz returns the commutation frequency for a motor running
// at the given RPM with the given pole-pair count (the paper notes 60-600 kHz
// product ranges; DShot1200 signalling runs at 74.6 kHz).
func RequiredSwitchingHz(rpm float64, polePairs int) float64 {
	if polePairs < 1 {
		polePairs = 1
	}
	return rpm / 60 * float64(polePairs) * 6
}
