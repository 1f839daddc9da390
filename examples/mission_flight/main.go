// Mission flight: the full stack end to end — the simulated drone flies a
// waypoint mission while streaming MAVLink telemetry over TCP to a ground
// station running in the same process, which monitors progress, like the
// paper's 915 MHz telemetry setup. An operator's return-to-launch lands
// mid-mission as an in-process call.
//
// The flight stack is wired by scenario.Build; because the operator's RTL
// lands mid-mission, this example drives the flight phases itself instead
// of using the canned scenario.Run sequence.
package main

import (
	"fmt"
	"log"
	"net"

	"dronedse/autopilot"
	"dronedse/groundstation"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/scenario"
)

func main() {
	// Ground station listening on loopback.
	gs := groundstation.New()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gs.ServeTCP("127.0.0.1:0", ready) }()
	addr := <-ready

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		log.Fatal(err)
	}

	plan := autopilot.MissionPlan{
		{Pos: mathx.V3(10, 0, 5), HoldS: 1},
		{Pos: mathx.V3(10, 10, 8), HoldS: 2},
	}
	// The drone side: plant + battery + autopilot, with telemetry at 1 Hz
	// of simulated time (1000 physics steps) into the TCP link.
	st, err := scenario.Build(scenario.Spec{
		Seed:     7,
		Workload: mission.Waypoints{Plan: plan},
		Telemetry: scenario.Telemetry{
			EverySteps: 1000,
			Send:       func(raw []byte) { conn.Write(raw) },
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ap := st.Autopilot

	if err := ap.LoadMission(plan); err != nil {
		log.Fatal(err)
	}
	if err := ap.Arm(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("armed; taking off toward 5 m")
	ap.RunUntil(func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Hover }, 30)
	if err := ap.StartMission(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mission started; flying 2 waypoints")

	// Fly until the second waypoint is reached, then order RTL the way an
	// operator would; the telemetry link itself is one way.
	ap.RunUntil(func(a *autopilot.Autopilot) bool {
		return a.Quad().State().Pos.Sub(plan[1].Pos).Norm() < 1
	}, 120)
	fmt.Println("waypoint 2 reached; ground station commands RTL")
	ap.CommandRTL()
	ap.RunUntil(func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Disarmed }, 120)
	conn.Close()
	gs.Shutdown()
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	s := gs.State()
	fmt.Printf("landed %.1f m from home after %.1f simulated seconds\n",
		st.Quad.State().Pos.Norm(), ap.Time())
	fmt.Printf("ground station saw %d frames (%d heartbeats), last position (%.1f, %.1f, %.1f), battery %.0f%%\n",
		s.Frames, s.Heartbeats, s.X, s.Y, s.Z, s.BatterySoC*100)
}
