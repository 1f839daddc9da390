// Package groundstation is the monitoring side of the Figure 3/5
// communication link: it consumes the drone's one-way MAVLink telemetry
// downlink over any io stream (TCP in the examples, in-memory pipes in
// tests) and tracks the latest vehicle state.
package groundstation

import (
	"bufio"
	"net"
	"sync"
	"time"

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

	// ReadTimeout is the per-read deadline on served TCP connections: a
	// link that goes silent longer than this is dropped so the vehicle can
	// reconnect (lossy links injected by faultx.LossyLink exercise it).
	// Zero means DefaultReadTimeout. Set before ServeTCP.
	ReadTimeout time.Duration
	// Reconnects counts connections served after the first.
	Reconnects int

	ln     net.Listener
	closed bool
}

// DefaultReadTimeout is the served connection's silent-link deadline.
const DefaultReadTimeout = 10 * time.Second

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

// ServeTCP accepts telemetry connections on addr and consumes them until
// Shutdown; it sends the listener address once listening via the ready
// channel. Connections are served one at a time (one vehicle): a dropped or
// silent link — enforced with a per-read deadline — closes the connection
// and the loop accepts the vehicle's reconnect, preserving the accumulated
// state across link outages.
func (s *Station) ServeTCP(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	defer ln.Close()
	if ready != nil {
		ready <- ln.Addr()
	}
	conns := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if conns > 0 {
			s.mu.Lock()
			s.Reconnects++
			s.mu.Unlock()
		}
		conns++
		s.serveConn(conn)
	}
}

// serveConn drains one telemetry connection until EOF, error, or a silent
// link hitting the read deadline.
func (s *Station) serveConn(conn net.Conn) {
	defer conn.Close()
	timeout := s.ReadTimeout
	if timeout <= 0 {
		timeout = DefaultReadTimeout
	}
	r := bufio.NewReader(conn)
	buf := make([]byte, 4096)
	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		n, err := r.Read(buf)
		if n > 0 {
			s.Consume(buf[:n])
		}
		if err != nil {
			return // EOF, deadline, or a broken link: wait for reconnect
		}
	}
}

// Shutdown stops ServeTCP: the listener closes and the serve loop returns
// nil after the in-flight connection (if any) drains.
func (s *Station) Shutdown() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}
