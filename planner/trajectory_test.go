package planner

import (
	"math"
	"testing"

	"dronedse/mathx"
)

// maxSpeed returns the highest speed the profile commands.
func maxSpeed(tr *Trajectory) float64 {
	m := 0.0
	for _, s := range tr.segs {
		m = math.Max(m, s.peakV)
	}
	return m
}

func TestTrajectoryProfile(t *testing.T) {
	path := []mathx.Vec3{{X: 0, Y: 0, Z: 5}, {X: 20, Y: 0, Z: 5}}
	tr, err := PlanTrajectory(path, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid: accel 2 s (4 m), cruise 12 m / 4 = 3 s, decel 2 s → 7 s.
	if math.Abs(tr.TotalS-7) > 1e-9 {
		t.Errorf("duration = %v, want 7 s", tr.TotalS)
	}
	if maxSpeed(tr) != 4 {
		t.Errorf("max speed = %v", maxSpeed(tr))
	}
	// Midpoint of cruise: position 4 + 4*1.5 = 10 m, speed 4.
	pos, vel := tr.Sample(3.5)
	if math.Abs(pos.X-10) > 1e-9 || math.Abs(vel.X-4) > 1e-9 {
		t.Errorf("cruise sample = %v, %v", pos, vel)
	}
	// End: holds the final waypoint at zero velocity.
	pos, vel = tr.Sample(100)
	if pos != path[1] || vel.Norm() != 0 {
		t.Errorf("post-end sample = %v, %v", pos, vel)
	}
	// Start.
	pos, vel = tr.Sample(-1)
	if pos != path[0] || vel.Norm() != 0 {
		t.Errorf("pre-start sample = %v, %v", pos, vel)
	}
}

func TestTrajectoryTriangularShortLeg(t *testing.T) {
	path := []mathx.Vec3{{Z: 5}, {X: 1, Z: 5}} // 1 m leg, never reaches vmax
	tr, err := PlanTrajectory(path, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 1.0) // sqrt(a*L)
	if math.Abs(maxSpeed(tr)-want) > 1e-9 {
		t.Errorf("triangular peak = %v, want %v", maxSpeed(tr), want)
	}
}

func TestTrajectoryContinuity(t *testing.T) {
	path := []mathx.Vec3{{Z: 5}, {X: 6, Z: 5}, {X: 6, Y: 8, Z: 7}, {X: 0, Y: 8, Z: 5}}
	tr, err := PlanTrajectory(path, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := tr.Sample(0)
	dt := 0.01
	for tt := dt; tt <= tr.TotalS+0.5; tt += dt {
		pos, vel := tr.Sample(tt)
		jump := pos.Sub(prev).Norm()
		if jump > maxSpeed(tr)*dt*1.5+1e-9 {
			t.Fatalf("position jump %v at t=%v", jump, tt)
		}
		if vel.Norm() > 5+1e-9 {
			t.Fatalf("velocity %v exceeds vmax at t=%v", vel.Norm(), tt)
		}
		prev = pos
	}
	// Velocity returns to zero at every waypoint (stop-at-waypoint
	// profile), in particular at the end.
	if _, vel := tr.Sample(tr.TotalS - 1e-6); vel.Norm() > 0.01 {
		t.Errorf("terminal velocity = %v", vel.Norm())
	}
}

func TestTrajectoryErrors(t *testing.T) {
	if _, err := PlanTrajectory([]mathx.Vec3{{X: 1}}, 1, 1); err == nil {
		t.Error("single waypoint accepted")
	}
	if _, err := PlanTrajectory([]mathx.Vec3{{X: 1}, {X: 1}}, 1, 1); err == nil {
		t.Error("zero-length path accepted")
	}
	if _, err := PlanTrajectory([]mathx.Vec3{{}, {X: 1}}, 0, 1); err == nil {
		t.Error("zero vmax accepted")
	}
}
