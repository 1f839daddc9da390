// Obstacle avoidance: the full outer loop of Table 1 in one program.
// Part 1 — perception: run SLAM on a synthetic sequence and turn its map
// points into an occupancy grid (the "SLAM / LiDAR mapping" application).
// Part 2 — planning & flight: build an obstacle world, plan a smoothed
// path through a window with A*, time-parametrize it, and fly it on the
// full simulated stack with velocity feed-forward.
package main

import (
	"fmt"
	"log"

	"dronedse/autopilot"
	"dronedse/dataset"
	"dronedse/mapping"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/planner"
	"dronedse/platform"
	"dronedse/scenario"
	"dronedse/slam"
)

func main() {
	// --- Part 1: SLAM map -> occupancy grid ---
	spec := dataset.EuRoCSpecs()[0]
	spec.Frames = 60 // a quick mapping pass
	seq, err := dataset.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	sys := slam.NewSystem(seq.Cam)
	for i := 0; i < seq.Len(); i++ {
		sys.ProcessFrame(seq.Frame(i))
	}
	points := sys.MapPointPositions()
	grid := mapping.FromPoints(points, 0.5)
	fmt.Printf("SLAM mapped %d points -> %d occupied voxels at 0.5 m\n",
		len(points), grid.OccupiedCount())

	// --- Part 2: plan through a walled world and fly it ---
	world := mapping.NewGrid(0.5)
	for y := -4.0; y <= 8; y += 0.4 {
		for z := 0.2; z <= 9; z += 0.4 {
			if y > 1.4 && y < 2.8 && z > 4.4 && z < 5.8 {
				continue // a 1.4 m window
			}
			world.InsertPoint(mathx.V3(8, y, z))
		}
	}
	inflated := world.Inflate(0.6) // drone radius + margin
	pl := planner.New(inflated, mathx.V3(-2, -6, 0.5), mathx.V3(18, 10, 10))

	start := mathx.V3(0, 0, 5)
	goal := mathx.V3(15, 0, 5)
	raw, err := pl.PlanPath(start, goal)
	if err != nil {
		log.Fatal(err)
	}
	path := pl.Smooth(raw)
	fmt.Printf("planned %.1f m path with %d waypoints (straight line blocked by the wall at x=8)\n",
		planner.PathLength(path), len(path))
	traj, err := planner.PlanTrajectory(path, 3, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trajectory: %.1f s at up to %.1f m/s\n", traj.TotalS, traj.MaxSpeed())

	// Fly it on the scenario engine: trajectory-following flight with a
	// collision-check observer watching the true position every step.
	collided := false
	st, err := scenario.Build(scenario.Spec{
		Seed:     11,
		Compute:  scenario.Compute{BaseW: platform.RPiPhasePowerW(platform.AutopilotSLAMFlying)},
		Workload: mission.Trajectory{Traj: traj},
		Observers: []autopilot.StepObserver{func(a *autopilot.Autopilot, dt float64) {
			if world.Occupied(a.Quad().State().Pos) {
				collided = true
			}
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		log.Fatal(err)
	}

	end := st.Quad.State().Pos
	fmt.Printf("flight done at (%.1f, %.1f, %.1f), %.1f m from the goal\n",
		end.X, end.Y, end.Z, end.Sub(goal).Norm())
	if collided {
		fmt.Println("WARNING: hit the wall!")
	} else {
		fmt.Println("threaded the window without touching the wall")
	}
}
