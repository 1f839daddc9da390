package groundstation

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"dronedse/autopilot"
	"dronedse/mavlink"
	"dronedse/power"
	"dronedse/sim"
)

// telemetrySource yields successive telemetry units (heartbeat + attitude +
// position + battery per unit) from a live autopilot, the same shape the
// scenario probe publishes.
func telemetrySource(t *testing.T) func() []byte {
	t.Helper()
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pack, err := power.NewPack(3, 3000, 30)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := autopilot.New(autopilot.Config{Quad: q, Battery: pack, ComputeW: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap.Arm()
	var seq uint8
	return func() []byte {
		ap.RunFor(0.05)
		raw, err := ap.AppendTelemetry(nil, &seq)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
}

// parseClean pushes a byte stream through a fresh parser and fails the test
// on any sign of torn or interleaved frames (resyncs, CRC failures,
// residual partial bytes between units are allowed only at the very end).
func parseClean(t *testing.T, stream []byte) []mavlink.Frame {
	t.Helper()
	var p mavlink.Parser
	frames := p.Push(stream)
	if p.Resyncs != 0 || p.BadCRC != 0 || p.Discarded != 0 {
		t.Fatalf("stream not frame-aligned: resyncs=%d badcrc=%d discarded=%d",
			p.Resyncs, p.BadCRC, p.Discarded)
	}
	if p.BufferedBytes() != 0 {
		t.Fatalf("stream ends mid-frame: %d residual bytes", p.BufferedBytes())
	}
	return frames
}

// heartbeatTimes extracts the heartbeat timestamps, the per-unit identity
// used to detect duplicated or reordered units across a reconnect.
func heartbeatTimes(frames []mavlink.Frame) []uint32 {
	var ts []uint32
	for _, f := range frames {
		if f.MsgID != mavlink.MsgHeartbeat {
			continue
		}
		h, err := mavlink.DecodeHeartbeat(f.Payload)
		if err == nil {
			ts = append(ts, h.TimeMS)
		}
	}
	return ts
}

// TestHubPublishBorrows pins Publish's borrow contract: the publisher may
// overwrite its buffer as soon as Publish returns and subscribers still read
// what was published, while a hub nobody subscribes to copies nothing.
func TestHubPublishBorrows(t *testing.T) {
	hub := NewHub()
	buf := []byte("unit-1")
	if n := testing.AllocsPerRun(100, func() { hub.Publish(buf) }); n != 0 {
		t.Fatalf("publishing with no subscribers allocates %.1f objects", n)
	}
	sub := hub.Subscribe(4)
	hub.Publish(buf)
	copy(buf, "unit-2")
	hub.Publish(buf)
	for _, want := range []string{"unit-1", "unit-2"} {
		if got, ok := sub.TryNext(); !ok || string(got) != want {
			t.Fatalf("subscriber read %q (ok %v), want %q", got, ok, want)
		}
	}
}

// TestHubStalledSubscriberIsolation is the fleetd backpressure contract: a
// subscriber that never reads must not delay telemetry to healthy ones, and
// the publisher must never block.
func TestHubStalledSubscriberIsolation(t *testing.T) {
	next := telemetrySource(t)
	hub := NewHub()

	const units = 200

	// Healthy subscriber: a StreamTo pump into an in-memory pipe with an
	// eager reader on the far end. Its queue covers the whole burst, so any
	// loss here could only come from the stalled co-subscriber delaying it.
	healthy := hub.Subscribe(units)
	hr, hw := net.Pipe()
	var healthyBytes bytes.Buffer
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]byte, 4096)
		for {
			n, err := hr.Read(buf)
			healthyBytes.Write(buf[:n])
			if err != nil {
				return
			}
		}
	}()
	healthyDone := make(chan error, 1)
	go func() { healthyDone <- StreamTo(hw, healthy) }()

	// Stalled subscriber: a pipe nobody ever reads. net.Pipe writes are
	// fully synchronous, so its StreamTo pump wedges on the very first
	// unit — the worst possible laggard.
	stalled := hub.Subscribe(4)
	sr, sw := net.Pipe()
	defer sr.Close()
	stalledDone := make(chan error, 1)
	go func() { stalledDone <- StreamTo(sw, stalled) }()

	published := make(chan struct{})
	go func() {
		for i := 0; i < units; i++ {
			hub.Publish(next())
		}
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked: a stalled subscriber stalled the tick loop")
	}

	hub.Close()
	select {
	case err := <-healthyDone:
		if err != nil {
			t.Fatalf("healthy stream failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy stream did not drain after hub close")
	}
	hw.Close()
	readerWG.Wait()

	// The healthy subscriber read concurrently with publishing, so it must
	// have received every unit: 4 frames per unit, timestamps monotone.
	frames := parseClean(t, healthyBytes.Bytes())
	if got := len(frames); got != 4*units {
		t.Fatalf("healthy subscriber got %d frames, want %d", got, 4*units)
	}
	ts := heartbeatTimes(frames)
	if len(ts) != units {
		t.Fatalf("healthy subscriber got %d heartbeats, want %d", len(ts), units)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("healthy heartbeat %d not monotone: %d -> %d", i, ts[i-1], ts[i])
		}
	}

	// The stalled subscriber must have shed: queue depth 4, one unit stuck
	// in its write, 200 published.
	if d := stalled.Dropped(); d == 0 {
		t.Fatal("stalled subscriber shed nothing; backpressure policy broken")
	}
	_, hubDropped, _ := hub.Stats()
	if hubDropped == 0 {
		t.Fatal("hub did not account shed units")
	}
	// Unblock and reap the stalled pump.
	sr.Close()
	select {
	case <-stalledDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled pump did not exit after its connection closed")
	}
}

// TestHubReconnectResume models a ground station dropping its link and
// resubscribing: the resumed stream may miss units published during the
// outage but must contain no duplicated, torn, or interleaved frames.
func TestHubReconnectResume(t *testing.T) {
	next := telemetrySource(t)
	hub := NewHub()

	var stream1, stream2 bytes.Buffer

	sub1 := hub.Subscribe(64)
	for i := 0; i < 10; i++ {
		hub.Publish(next())
	}
	for {
		u, ok := sub1.TryNext()
		if !ok {
			break
		}
		stream1.Write(u)
	}
	hub.Unsubscribe(sub1) // link drop

	// Units published while disconnected are lost to this client.
	for i := 0; i < 5; i++ {
		hub.Publish(next())
	}

	sub2 := hub.Subscribe(64) // reconnect + resubscribe
	for i := 0; i < 10; i++ {
		hub.Publish(next())
	}
	hub.Close()
	for {
		u, ok := sub2.Next()
		if !ok {
			break
		}
		stream2.Write(u)
	}

	f1 := parseClean(t, stream1.Bytes())
	f2 := parseClean(t, stream2.Bytes())
	if len(f1) != 4*10 || len(f2) != 4*10 {
		t.Fatalf("frames = %d + %d, want 40 + 40", len(f1), len(f2))
	}

	// Across both segments: strictly monotone unit timestamps (so nothing
	// was duplicated or replayed) with a gap where the outage was.
	all := append(heartbeatTimes(f1), heartbeatTimes(f2)...)
	seen := map[uint32]bool{}
	for i, ts := range all {
		if seen[ts] {
			t.Fatalf("heartbeat %d duplicated across reconnect (t=%d ms)", i, ts)
		}
		seen[ts] = true
		if i > 0 && all[i] <= all[i-1] {
			t.Fatalf("heartbeat %d out of order across reconnect: %d -> %d", i, all[i-1], all[i])
		}
	}

	// A station consuming the concatenated segments tracks state cleanly.
	gs := New(nil)
	gs.Consume(stream1.Bytes())
	gs.Consume(stream2.Bytes())
	if st := gs.State(); st.Heartbeats != 20 || st.ParseErrors != 0 {
		t.Fatalf("station saw %d heartbeats, %d parse errors; want 20, 0",
			st.Heartbeats, st.ParseErrors)
	}
}

// TestHubBacklog pins the drain-aware close signal: Backlog counts queued
// undelivered units across subscribers, falls as they drain, and drops to
// zero once subscribers detach — never double-counting shed units.
func TestHubBacklog(t *testing.T) {
	next := telemetrySource(t)
	hub := NewHub()
	a := hub.Subscribe(4)
	b := hub.Subscribe(8)
	for i := 0; i < 6; i++ {
		hub.Publish(next())
	}
	// a's 4-deep ring shed 2 of the 6; b holds all 6.
	if got := hub.Backlog(); got != 4+6 {
		t.Fatalf("backlog = %d, want 10", got)
	}
	if a.Len() != 4 || b.Len() != 6 {
		t.Fatalf("sub lens = %d/%d, want 4/6", a.Len(), b.Len())
	}
	for i := 0; i < 3; i++ {
		if _, ok := b.Next(); !ok {
			t.Fatal("drain underflow")
		}
	}
	if got := hub.Backlog(); got != 4+3 {
		t.Fatalf("backlog after partial drain = %d, want 7", got)
	}
	hub.Unsubscribe(a)
	if got := hub.Backlog(); got != 3 {
		t.Fatalf("backlog after unsubscribe = %d, want 3", got)
	}
	hub.Close()
	for {
		if _, ok := b.Next(); !ok {
			break
		}
	}
	if got := hub.Backlog(); got != 0 {
		t.Fatalf("backlog after close + drain = %d, want 0", got)
	}
}

// TestHubCloseDrains pins the shutdown contract: units queued before Close
// are still delivered, then Next reports closed.
func TestHubCloseDrains(t *testing.T) {
	next := telemetrySource(t)
	hub := NewHub()
	sub := hub.Subscribe(8)
	for i := 0; i < 3; i++ {
		hub.Publish(next())
	}
	hub.Close()
	got := 0
	for {
		u, ok := sub.Next()
		if !ok {
			break
		}
		parseClean(t, u)
		got++
	}
	if got != 3 {
		t.Fatalf("drained %d units after close, want 3", got)
	}
	if _, ok := sub.Next(); ok {
		t.Fatal("Next returned a unit after drain + close")
	}
	// Late subscribers to a closed hub are born drained.
	if _, ok := hub.Subscribe(8).Next(); ok {
		t.Fatal("subscription to a closed hub yielded a unit")
	}
}
