package autopilot

import (
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/planner"
)

func TestFlyTrajectory(t *testing.T) {
	ap := newTestAP(t, 3)
	path := []mathx.Vec3{
		{X: 0, Y: 0, Z: 5},
		{X: 10, Y: 0, Z: 5},
		{X: 10, Y: 8, Z: 7},
	}
	tr, err := planner.PlanTrajectory(path, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Must be airborne first.
	if err := ap.FlyTrajectory(tr); err == nil {
		t.Error("trajectory accepted while disarmed")
	}
	if err := ap.Arm(); err != nil {
		t.Fatal(err)
	}
	ap.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := ap.FlyTrajectory(tr); err != nil {
		t.Fatal(err)
	}
	if ap.Mode() != TrajectoryMode {
		t.Fatalf("mode = %v", ap.Mode())
	}

	// Track the trajectory: the true position must stay near the
	// commanded sample throughout.
	t0 := ap.Time()
	worst := 0.0
	done := ap.runUntil(func(a *Autopilot) bool {
		if a.Mode() == TrajectoryMode {
			want, _ := tr.Sample(a.Time() - t0)
			if d := a.Quad().State().Pos.Sub(want).Norm(); d > worst {
				worst = d
			}
		}
		return a.Mode() == Hover
	}, tr.TotalS+30)
	if !done {
		t.Fatalf("trajectory never completed; mode=%v", ap.Mode())
	}
	if worst > 1.5 {
		t.Errorf("worst tracking error %.2f m along the trajectory", worst)
	}
	// Holding at the end point.
	runFor(ap, 3)
	if d := ap.Quad().State().Pos.Sub(path[len(path)-1]).Norm(); d > 1 {
		t.Errorf("not holding at trajectory end: %.2f m away", d)
	}
}

func TestFlyTrajectoryNil(t *testing.T) {
	ap := newTestAP(t, 3)
	if err := ap.FlyTrajectory(nil); err == nil {
		t.Error("nil trajectory accepted")
	}
}

func TestTrajectoryVelocityFeedForwardHelps(t *testing.T) {
	// Fly the same 20 m leg as a trajectory (position+velocity targets)
	// and as a bare waypoint (position only): the trajectory tracker's
	// mid-flight position error must be smaller, demonstrating the
	// feed-forward path of Figure 6.
	path := []mathx.Vec3{{X: 0, Y: 0, Z: 5}, {X: 20, Y: 0, Z: 5}}
	tr, err := planner.PlanTrajectory(path, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}

	apT := newTestAP(t, 3)
	apT.Arm()
	apT.runUntil(func(a *Autopilot) bool { return a.Mode() == Hover }, 30)
	if err := apT.FlyTrajectory(tr); err != nil {
		t.Fatal(err)
	}
	t0 := apT.Time()
	var sum float64
	var n int
	apT.runUntil(func(a *Autopilot) bool {
		if a.Mode() == TrajectoryMode {
			want, _ := tr.Sample(a.Time() - t0)
			sum += a.Quad().State().Pos.Sub(want).Norm()
			n++
		}
		return a.Mode() == Hover
	}, tr.TotalS+20)
	trajErr := sum / math.Max(1, float64(n))

	if trajErr > 1.0 {
		t.Errorf("mean trajectory tracking error %.2f m", trajErr)
	}
}
