package groundstation

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/mavlink"
	"dronedse/power"
	"dronedse/sim"
)

func TestConsumeTelemetry(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	pack, _ := power.NewPack(3, 3000, 30)
	ap, err := autopilot.New(autopilot.Config{Quad: q, Battery: pack, ComputeW: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap.Arm()
	ap.RunFor(2)

	var seq uint8
	raw, err := ap.AppendTelemetry(nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	gs := New(nil)
	gs.Consume(raw)
	st := gs.State()
	if st.Heartbeats != 1 {
		t.Errorf("heartbeats = %d", st.Heartbeats)
	}
	if !st.Armed {
		t.Error("armed flag lost")
	}
	if st.Frames < 4 {
		t.Errorf("frames = %d, want heartbeat+attitude+position+battery", st.Frames)
	}
	if st.BatterySoC <= 0 || st.BatterySoC > 1 {
		t.Errorf("SoC = %v", st.BatterySoC)
	}
	if st.Z < 0 {
		t.Errorf("altitude = %v", st.Z)
	}
}

func TestConsumeFragmented(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	var stream []byte
	for i := 0; i < 10; i++ {
		raw, _ := ap.AppendTelemetry(nil, &seq)
		stream = append(stream, raw...)
	}
	gs := New(nil)
	for i := 0; i < len(stream); i += 3 {
		end := i + 3
		if end > len(stream) {
			end = len(stream)
		}
		gs.Consume(stream[i:end])
	}
	if got := gs.State().Heartbeats; got != 10 {
		t.Errorf("heartbeats = %d, want 10", got)
	}
}

func TestSendCommand(t *testing.T) {
	var buf bytes.Buffer
	gs := New(&buf)
	if err := gs.SendCommand(mavlink.CommandLong{Command: mavlink.CmdArm}); err != nil {
		t.Fatal(err)
	}
	var p mavlink.Parser
	frames := p.Push(buf.Bytes())
	if len(frames) != 1 || frames[0].MsgID != mavlink.MsgCommandLong {
		t.Fatalf("command frame = %+v", frames)
	}
	c, err := mavlink.DecodeCommandLong(frames[0].Payload)
	if err != nil || c.Command != mavlink.CmdArm {
		t.Errorf("decoded = %+v, %v", c, err)
	}
	recvOnly := New(nil)
	if err := recvOnly.SendCommand(mavlink.CommandLong{}); err == nil {
		t.Error("receive-only station sent a command")
	}
}

func TestCommandDrivesAutopilot(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var buf bytes.Buffer
	gs := New(&buf)
	gs.SendCommand(mavlink.CommandLong{Command: mavlink.CmdArm})
	var p mavlink.Parser
	for _, f := range p.Push(buf.Bytes()) {
		c, err := mavlink.DecodeCommandLong(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.HandleCommand(c); err != nil {
			t.Fatal(err)
		}
	}
	if ap.Mode() != autopilot.Takeoff {
		t.Errorf("mode after remote arm = %v", ap.Mode())
	}
	if err := ap.HandleCommand(mavlink.CommandLong{Command: 999}); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestServeTCP(t *testing.T) {
	gs := New(nil)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gs.ServeTCP("127.0.0.1:0", ready) }()
	addr := <-ready

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	for i := 0; i < 5; i++ {
		raw, _ := ap.AppendTelemetry(nil, &seq)
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitForHeartbeats(t, gs, 5)
	gs.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish")
	}
	if got := gs.State().Heartbeats; got != 5 {
		t.Errorf("heartbeats over TCP = %d, want 5", got)
	}
}

// waitForHeartbeats polls until the station has consumed at least n
// heartbeats (the serve loop runs in its own goroutine).
func waitForHeartbeats(t *testing.T, gs *Station, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gs.State().Heartbeats < n {
		if time.Now().After(deadline) {
			t.Fatalf("station saw %d heartbeats, want %d", gs.State().Heartbeats, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeTCPReconnect drops the telemetry link mid-flight and reconnects:
// the accept loop must serve the new connection and the Track history must
// span both connections (the LossyLink outage scenario's ground-side
// contract).
func TestServeTCPReconnect(t *testing.T) {
	gs := New(nil)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gs.ServeTCP("127.0.0.1:0", ready) }()
	addr := <-ready

	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	sendBurst := func(conn net.Conn, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ap.RunFor(0.05)
			raw, err := ap.AppendTelemetry(nil, &seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(raw); err != nil {
				t.Fatal(err)
			}
		}
	}

	conn1, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	sendBurst(conn1, 4)
	conn1.Close() // link drop
	waitForHeartbeats(t, gs, 4)
	trackBefore := len(gs.Track())

	conn2, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	sendBurst(conn2, 3)
	conn2.Close()
	waitForHeartbeats(t, gs, 7)
	gs.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish")
	}

	if gs.Reconnects != 1 {
		t.Errorf("reconnects = %d, want 1", gs.Reconnects)
	}
	track := gs.Track()
	if len(track) != 7 {
		t.Errorf("track = %d fixes, want 7 (history must survive the link drop)", len(track))
	}
	if trackBefore == 0 || len(track) <= trackBefore {
		t.Errorf("track did not grow across reconnect: before=%d after=%d", trackBefore, len(track))
	}
	for i := 1; i < len(track); i++ {
		if track[i].TimeMS < track[i-1].TimeMS {
			t.Fatal("track timestamps not monotone across reconnect")
		}
	}
}

// TestServeTCPReadDeadline verifies a silent connection is dropped after the
// read timeout instead of wedging the accept loop forever.
func TestServeTCPReadDeadline(t *testing.T) {
	gs := New(nil)
	gs.ReadTimeout = 50 * time.Millisecond
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gs.ServeTCP("127.0.0.1:0", ready) }()
	addr := <-ready

	// A connection that never sends a byte: the server must time it out.
	silent, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// After the deadline the loop must accept a fresh connection.
	time.Sleep(120 * time.Millisecond)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	raw, _ := ap.AppendTelemetry(nil, &seq)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitForHeartbeats(t, gs, 1)
	gs.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish")
	}
}

func TestTrackHistory(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, TakeoffAltM: 5, Seed: 4})
	gs := New(nil)
	var seq uint8
	ap.Arm()
	ap.RunUntil(func(a *autopilot.Autopilot) bool { return a.Mode() == autopilot.Hover }, 30)
	ap.LoadMission(autopilot.MissionPlan{{Pos: mathxV3(10, 0, 5)}})
	ap.StartMission()
	steps := 0
	ap.RunUntil(func(a *autopilot.Autopilot) bool {
		steps++
		if steps%500 == 0 { // 2 Hz telemetry
			raw, _ := a.AppendTelemetry(nil, &seq)
			gs.Consume(raw)
		}
		return a.Mode() == autopilot.Disarmed
	}, 120)
	track := gs.Track()
	if len(track) < 10 {
		t.Fatalf("track has %d fixes", len(track))
	}
	for i := 1; i < len(track); i++ {
		if track[i].TimeMS < track[i-1].TimeMS {
			t.Fatal("track timestamps not monotone")
		}
	}
	// The mission went out ~10 m and back: distance flown ~20 m or more.
	if d := gs.DistanceFlown(); d < 12 || d > 60 {
		t.Errorf("distance flown = %.1f m, want ~20+", d)
	}
}

func TestTrackBounded(t *testing.T) {
	gs := New(nil)
	gs.histCap = 8
	q, _ := sim.NewQuad(sim.DefaultConfig())
	ap, _ := autopilot.New(autopilot.Config{Quad: q, Seed: 1})
	var seq uint8
	for i := 0; i < 50; i++ {
		ap.RunFor(0.05)
		raw, _ := ap.AppendTelemetry(nil, &seq)
		gs.Consume(raw)
	}
	if got := len(gs.Track()); got > 8 {
		t.Errorf("history grew to %d, cap 8", got)
	}
}

func mathxV3(x, y, z float64) mathx.Vec3 { return mathx.V3(x, y, z) }
