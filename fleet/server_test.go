package fleet_test

import (
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dronedse/fleet"
	"dronedse/groundstation"
	"dronedse/mavlink"
)

// startTelemetry attaches a TCP telemetry listener to srv and returns its
// address. The engine is NOT started — tests drive Advance themselves so
// subscribers can attach before any telemetry is published.
func startTelemetry(t *testing.T, srv *fleet.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	telemErr := make(chan error, 1)
	go func() { defer wg.Done(); telemErr <- srv.ServeTelemetry(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("telemetry goroutine did not stop after Shutdown")
		}
		if err := <-telemErr; err != nil {
			t.Errorf("telemetry serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// collectStream drains a telemetry connection to EOF (the job finishing).
func collectStream(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stream read: %v (got %d bytes)", err, len(data))
	}
	return data
}

// parseStream decodes a telemetry byte stream, failing on any torn frame.
func parseStream(t *testing.T, data []byte) []mavlink.Frame {
	t.Helper()
	var p mavlink.Parser
	frames := p.Push(data)
	if p.Resyncs != 0 || p.BadCRC != 0 || p.BufferedBytes() != 0 {
		t.Fatalf("telemetry stream damaged: resyncs=%d badcrc=%d residual=%d",
			p.Resyncs, p.BadCRC, p.BufferedBytes())
	}
	return frames
}

// TestServeTelemetryStreamAndStall is the backpressure acceptance path: a
// healthy subscriber receives a parseable stream to clean EOF while a
// stalled subscriber on a co-tenant job sheds frames, and every job still
// completes (the tick loop never waits on a socket).
func TestServeTelemetryStreamAndStall(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 32, SubQueue: 4})
	telemAddr := startTelemetry(t, srv)

	specs := coTenants(8, 300)
	ids, err := srv.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	// Stalled subscriber on job 0: subscribes, never reads.
	stalled, err := fleet.DialStream(telemAddr, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// Healthy subscriber on job 1: reads to EOF.
	healthy, err := fleet.DialStream(telemAddr, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Drive the engine to drain concurrently with the healthy read. The
	// engine never touches a socket, so the stalled subscriber cannot stop
	// this loop from finishing — that completing at all is the assertion.
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		for i := 0; i < 100000; i++ {
			if !srv.Advance(1000) {
				return
			}
		}
	}()

	stream := collectStream(t, healthy)
	frames := parseStream(t, stream)
	if len(frames) == 0 {
		t.Fatal("healthy subscriber saw no telemetry")
	}

	select {
	case <-engineDone:
	case <-time.After(60 * time.Second):
		t.Fatal("engine loop stalled with a dead subscriber attached")
	}
	st := srv.Stats()
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(specs))
	}

	// A groundstation consuming the healthy stream sees a coherent flight.
	gs := groundstation.New(nil)
	gs.Consume(stream)
	if gst := gs.State(); gst.Heartbeats == 0 || gst.ParseErrors != 0 {
		t.Fatalf("ground station state: %+v", gst)
	}
}

// TestStreamReconnectResubscribe drops a subscriber mid-flight and
// resubscribes: both segments must be frame-aligned with strictly monotone
// heartbeat timestamps across the gap (no duplicated or interleaved
// frames), mirroring the hub-level contract over real TCP.
func TestStreamReconnectResubscribe(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4, SubQueue: 4096})
	telemAddr := startTelemetry(t, srv)
	id, err := srv.Submit(fleet.JobSpec{Seed: 9, Workload: hover, MaxSeconds: 30, TelemetryEverySteps: 100})
	if err != nil {
		t.Fatal(err)
	}

	conn1, err := fleet.DialStream(telemAddr, id)
	if err != nil {
		t.Fatal(err)
	}
	// Publish ~20 telemetry units, then read a prefix of them.
	for i := 0; i < 20; i++ {
		srv.Advance(100)
	}
	seg1 := make([]byte, 4096)
	conn1.SetReadDeadline(time.Now().Add(30 * time.Second))
	n1, err := io.ReadAtLeast(conn1, seg1, 512)
	if err != nil {
		t.Fatal(err)
	}
	conn1.Close() // link drop mid-stream

	// Units published while disconnected are lost, not replayed.
	for i := 0; i < 5; i++ {
		srv.Advance(100)
	}

	conn2, err := fleet.DialStream(telemAddr, id) // reconnect + resubscribe
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	drive(t, srv) // fly the job out; its hub close ends the stream
	seg2 := collectStream(t, conn2)
	if len(seg2) == 0 {
		t.Fatal("resubscribed stream empty")
	}

	// seg1 may end mid-frame (the TCP cut is byte-granular); trim to the
	// last complete frame before checking alignment.
	var p1 mavlink.Parser
	f1 := p1.Push(seg1[:n1])
	if p1.Resyncs != 0 || p1.BadCRC != 0 {
		t.Fatalf("pre-drop stream damaged: resyncs=%d badcrc=%d", p1.Resyncs, p1.BadCRC)
	}
	f2 := parseStream(t, seg2)
	if len(f1) == 0 || len(f2) == 0 {
		t.Fatalf("frames: %d before drop, %d after resubscribe", len(f1), len(f2))
	}

	var last uint32
	seen := map[uint32]bool{}
	for _, f := range append(f1, f2...) {
		if f.MsgID != mavlink.MsgHeartbeat {
			continue
		}
		h, err := mavlink.DecodeHeartbeat(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h.TimeMS] {
			t.Fatalf("heartbeat t=%d ms duplicated across reconnect", h.TimeMS)
		}
		seen[h.TimeMS] = true
		if h.TimeMS < last {
			t.Fatalf("heartbeat went backwards across reconnect: %d -> %d", last, h.TimeMS)
		}
		last = h.TimeMS
	}
}

// TestHTTPAPI exercises the JSON front end end to end: submit, poll, fetch
// status + digests, stats, 404s, and the shutdown request channel.
func TestHTTPAPI(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 8})
	go srv.Run()
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := fleet.NewClient(hs.URL)
	ids, err := c.Submit([]fleet.JobSpec{
		{Seed: 1, Workload: hover, MaxSeconds: 2},
		{Seed: 2, Workload: hover, MaxSeconds: 2},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("submit: ids=%v err=%v", ids, err)
	}
	jobs, err := c.WaitAll(60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State != "done" || j.Digests == nil || j.FlightTimeS <= 0 {
			t.Fatalf("job %d: %+v", j.ID, j)
		}
	}
	st, err := c.Job(ids[0])
	if err != nil || st.ID != ids[0] {
		t.Fatalf("job fetch: %+v err=%v", st, err)
	}
	if _, err := c.Job(9999); err == nil {
		t.Fatal("unknown job id did not 404")
	}
	stats, err := c.Stats()
	if err != nil || stats.Completed != 2 || stats.Submitted != 2 {
		t.Fatalf("stats: %+v err=%v", stats, err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("POST /shutdown did not signal the server")
	}
}

// TestQueueAdmissionEviction pins capacity behaviour: far more jobs than
// lanes, all complete, and the lane cap is never exceeded.
func TestQueueAdmissionEviction(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	specs := coTenants(12, 500)
	if _, err := srv.SubmitAll(specs); err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	st := srv.Stats()
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(specs))
	}
	if st.PeakLive != 4 {
		t.Fatalf("peak live = %d, want the full 4-lane cap", st.PeakLive)
	}
	if st.Queued != 0 || st.Live != 0 {
		t.Fatalf("server not drained: %+v", st)
	}
}

// TestSubmitAfterShutdown pins the closed-server error path.
func TestSubmitAfterShutdown(t *testing.T) {
	srv := fleet.New(fleet.Config{})
	srv.Shutdown()
	if _, err := srv.Submit(fleet.JobSpec{Seed: 1}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

// TestBuildFailureFailsJobOnly: a job whose flight can't build fails with
// its error recorded while co-tenants complete untouched.
func TestBuildFailureFailsJobOnly(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	ids, err := srv.SubmitAll([]fleet.JobSpec{
		{Seed: 1, Workload: hover, MaxSeconds: 2},
		{Seed: 2, Workload: hover, MaxSeconds: 2, BatteryCells: -3},
		{Seed: 3, Workload: hover, MaxSeconds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	bad, _ := srv.Job(ids[1])
	if bad.State != "failed" || bad.Error == "" {
		t.Fatalf("bad job: %+v", bad)
	}
	for _, id := range []uint64{ids[0], ids[2]} {
		if st, _ := srv.Job(id); st.State != "done" {
			t.Fatalf("co-tenant %d: %+v", id, st)
		}
	}
}

// TestShutdownWithActiveSubscriberCleanEOF is the shutdown-ordering
// regression test: Shutdown must stop the engine and wait for it to drain
// BEFORE closing telemetry hubs, so an actively-reading subscriber caught
// mid-flight drains to a clean, frame-aligned EOF having received every
// unit the engine ever published — nothing torn, nothing shed, nothing
// published into a closed hub.
func TestShutdownWithActiveSubscriberCleanEOF(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 2, SubQueue: 8192})
	telemAddr := startTelemetry(t, srv)

	// A flight long enough to still be airborne at shutdown, publishing at
	// a brisk cadence.
	id, err := srv.Submit(fleet.JobSpec{Seed: 11, Workload: hover, MaxSeconds: 1200, TelemetryEverySteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fleet.DialStream(telemAddr, id)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(conn) // reads until the server ends the stream
		streamed <- data
	}()

	go srv.Run()
	for i := 0; srv.Stats().FramesPublished < 20; i++ {
		if i > 10000 {
			t.Fatal("no telemetry flowed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Shutdown() // mid-flight, subscriber still attached and reading

	var data []byte
	select {
	case data = <-streamed:
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber never reached EOF after shutdown")
	}
	frames := parseStream(t, data) // fails on any torn or interleaved frame
	heartbeats := 0
	for _, f := range frames {
		if f.MsgID == mavlink.MsgHeartbeat {
			heartbeats++
		}
	}
	st := srv.Stats()
	if st.FramesDropped != 0 {
		t.Fatalf("an actively-reading subscriber shed %d units", st.FramesDropped)
	}
	// One heartbeat per published unit: the subscriber got the whole
	// stream, which is only possible if the hub closed after the engine
	// fully drained.
	if uint64(heartbeats) != st.FramesPublished {
		t.Fatalf("subscriber parsed %d heartbeats of %d published units",
			heartbeats, st.FramesPublished)
	}
	if st.TelemetryBacklog != 0 {
		t.Fatalf("%d units left queued after shutdown drain", st.TelemetryBacklog)
	}
}
