// Package groundstation is the monitoring side of the Figure 3/5
// communication link: Station consumes the drone's one-way MAVLink
// telemetry downlink and tracks the latest vehicle state, and Hub fans a
// flight's telemetry out to live subscribers (fleetd's stream).
package groundstation

import (
	"sync"

	"dronedse/mavlink"
)

// VehicleState is the ground station's latest view of the drone.
type VehicleState struct {
	Mode        uint8
	Armed       bool
	TimeMS      uint32
	Roll        float64
	Pitch       float64
	Yaw         float64
	X, Y, Z     float64
	VX, VY, VZ  float64
	BatteryV    float64
	BatterySoC  float64
	PowerW      float64
	Heartbeats  int
	Frames      int
	ParseErrors int
}

// Station consumes telemetry.
type Station struct {
	mu     sync.Mutex
	state  VehicleState
	parser mavlink.Parser
}

// New returns a station that has seen no telemetry yet.
func New() *Station { return &Station{} }

// State returns a snapshot of the latest vehicle state.
func (s *Station) State() VehicleState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Consume feeds raw telemetry bytes into the station.
func (s *Station) Consume(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.parser.Push(data) {
		s.state.Frames++
		switch f.MsgID {
		case mavlink.MsgHeartbeat:
			h, err := mavlink.DecodeHeartbeat(f.Payload)
			if err != nil {
				s.state.ParseErrors++
				continue
			}
			s.state.Heartbeats++
			s.state.Mode, s.state.Armed, s.state.TimeMS = h.Mode, h.Armed, h.TimeMS
		case mavlink.MsgAttitude:
			a, err := mavlink.DecodeAttitude(f.Payload)
			if err != nil {
				s.state.ParseErrors++
				continue
			}
			s.state.Roll, s.state.Pitch, s.state.Yaw = float64(a.Roll), float64(a.Pitch), float64(a.Yaw)
		case mavlink.MsgGlobalPosition:
			g, err := mavlink.DecodeGlobalPosition(f.Payload)
			if err != nil {
				s.state.ParseErrors++
				continue
			}
			s.state.X, s.state.Y, s.state.Z = float64(g.X), float64(g.Y), float64(g.Z)
			s.state.VX, s.state.VY, s.state.VZ = float64(g.VX), float64(g.VY), float64(g.VZ)
			s.state.TimeMS = g.TimeMS
		case mavlink.MsgBatteryStatus:
			b, err := mavlink.DecodeBatteryStatus(f.Payload)
			if err != nil {
				s.state.ParseErrors++
				continue
			}
			s.state.BatteryV, s.state.BatterySoC, s.state.PowerW = float64(b.VoltageV), float64(b.SoC), float64(b.PowerW)
		default:
			// the parser drops IDs without a CRC_EXTRA seed, so only the
			// four downlink messages above reach here
		}
	}
}
