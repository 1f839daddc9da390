package sim

// Stride divides the physics clock for a loop running at a lower rate: Due
// reports true on every Every-th physics step, starting with the first. It
// counts a phase instead of taking a step count modulo the period, so a
// tick pays no division.
type Stride struct{ every, phase int }

// NewStride returns the divider of a loop at loopHz on a physicsHz clock:
// the period rounded to the nearest whole step and at least one, so a loop
// at or above the physics rate, or at a non-positive rate, runs every step.
func NewStride(physicsHz, loopHz float64) Stride {
	every := 1
	if loopHz > 0 {
		every = max(int(physicsHz/loopHz+0.5), 1)
	}
	return Stride{every: every}
}

// Every is the loop's period in physics steps.
func (s Stride) Every() int { return s.every }

// Due reports whether the loop runs on the present step.
func (s Stride) Due() bool { return s.phase == 0 }

// Advance moves the divider on by one physics step.
func (s *Stride) Advance() {
	if s.phase++; s.phase == s.every {
		s.phase = 0
	}
}
