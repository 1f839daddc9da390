package sim

import (
	"math"
	"testing"
)

// TestStrideMatchesStepModulo pins the divider to the step-count modulo it
// stands for: over 5000 steps it is due exactly on the steps s with
// s % every == 0, every being the loop period rounded to whole steps (at
// least one, and one for a non-positive rate).
func TestStrideMatchesStepModulo(t *testing.T) {
	for _, c := range []struct {
		physHz, loopHz float64
		every          int
	}{
		{1000, 6, 167}, {1000, 40, 25}, {1000, 333, 3}, {1000, 997, 1},
		{1000, 1500, 1}, {2000, 2000, 1}, {1000, 0, 1}, {1000, -5, 1}, {1000, math.NaN(), 1},
	} {
		s := NewStride(c.physHz, c.loopHz)
		if s.Every() != c.every {
			t.Errorf("NewStride(%v, %v).Every() = %d, want %d", c.physHz, c.loopHz, s.Every(), c.every)
			continue
		}
		for step := 0; step < 5000; step++ {
			if s.Due() != (step%c.every == 0) {
				t.Fatalf("%v Hz on %v Hz: Due = %v at step %d", c.loopHz, c.physHz, s.Due(), step)
			}
			s.Advance()
		}
	}
}
