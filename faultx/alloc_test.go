package faultx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dronedse/mavlink"
)

// telemetryBurst encodes one four-frame telemetry unit (heartbeat,
// attitude, position, battery), the burst a flight sends each cadence tick.
func telemetryBurst(t *testing.T) []byte {
	t.Helper()
	payloads := [...][]byte{
		mavlink.AppendHeartbeat(nil, mavlink.Heartbeat{Mode: 3, Armed: true, TimeMS: 1000}),
		mavlink.AppendAttitude(nil, mavlink.Attitude{TimeMS: 1000, Roll: 0.1, Yaw: 3}),
		mavlink.AppendGlobalPosition(nil, mavlink.GlobalPosition{TimeMS: 1000, X: 12.5, Z: 5}),
		mavlink.AppendBatteryStatus(nil, mavlink.BatteryStatus{VoltageV: 11.1, SoC: 0.9}),
	}
	var burst []byte
	for i, pl := range payloads {
		var err error
		burst, err = mavlink.Frame{Seq: uint8(i), MsgID: mavlink.MsgID(i), Payload: pl}.AppendTo(burst)
		if err != nil {
			t.Fatal(err)
		}
	}
	return burst
}

// TestLossyLinkZeroAlloc: with all five fault kinds enabled, a warmed link
// transmits into its own buffers without allocating, and the measured calls
// exercise every kind.
func TestLossyLinkZeroAlloc(t *testing.T) {
	l := NewLossyLink(11)
	l.DropProb, l.CorruptProb, l.DupProb, l.TruncProb, l.ReorderProb = 0.2, 0.2, 0.2, 0.2, 0.2
	chunk := telemetryBurst(t)
	for i := 0; i < 1000; i++ {
		l.Transmit(chunk)
	}
	before := l.Stats
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			l.Transmit(chunk)
		}
	}); n != 0 {
		t.Errorf("1000 warmed Transmits allocate %.0f objects", n)
	}
	s := l.Stats
	if s.Dropped == before.Dropped || s.Corrupted == before.Corrupted || s.Duplicated == before.Duplicated ||
		s.Truncated == before.Truncated || s.Reordered == before.Reordered {
		t.Errorf("measured calls left a fault kind unexercised: %+v → %+v", before, s)
	}
}

// TestLossyLinkAcceptsOwnBuffers: feeding a link its own Transmit or Flush
// result, as finishing a campaign row does, delivers the same bytes and
// stats as feeding it a copy, and both match the digest and stats recorded
// from the allocating link the buffered one replaced.
func TestLossyLinkAcceptsOwnBuffers(t *testing.T) {
	newLink := func() *LossyLink {
		l := NewLossyLink(5)
		l.DropProb, l.CorruptProb, l.DupProb, l.TruncProb, l.ReorderProb = 0.2, 0.3, 0.3, 0.2, 0.3
		return l
	}
	own, copied := newLink(), newLink()
	chunk := telemetryBurst(t)
	delivered := sha256.New()
	for i := 0; i < 300; i++ {
		a, b := own.Transmit(chunk), copied.Transmit(chunk)
		switch i % 3 {
		case 1:
			a, b = own.Transmit(a), copied.Transmit(bytes.Clone(b))
		case 2:
			a, b = own.Transmit(own.Flush()), copied.Transmit(bytes.Clone(copied.Flush()))
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("call %d: own buffer delivered %x, a copy %x", i, a, b)
		}
		delivered.Write(a)
	}
	if own.Stats != copied.Stats {
		t.Errorf("stats differ: %+v vs %+v", own.Stats, copied.Stats)
	}
	const wantDigest = "8f3957d2bd81e1f81cde629c61c2e7433de6afdb1677f8de8fc201823b5b3b0a"
	wantStats := LinkStats{Chunks: 500, Dropped: 74, Corrupted: 101, Duplicated: 87,
		Truncated: 58, Reordered: 92, BytesIn: 45303, BytesOut: 42691}
	if got := hex.EncodeToString(delivered.Sum(nil)); got != wantDigest || own.Stats != wantStats {
		t.Errorf("delivered stream %s, stats %+v; want %s, %+v", got, own.Stats, wantDigest, wantStats)
	}
}

// TestRowReceiveZeroAlloc: a warmed campaign row passes telemetry through
// its link into its parser without allocating, on a clean link and on the
// standard lossy-telemetry profile.
func TestRowReceiveZeroAlloc(t *testing.T) {
	burst := telemetryBurst(t)
	for name, link := range map[string]LinkLoss{
		"clean": {},
		"lossy": {Drop: 0.1, Corrupt: 0.1, Dup: 0.05, Trunc: 0.05, Reorder: 0.05},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRow(Scenario{Seed: 3, Link: link})
			for i := 0; i < 1000; i++ {
				r.receive(burst)
			}
			frames := r.parser.Complete
			if n := testing.AllocsPerRun(1, func() {
				for range 500 {
					r.receive(burst)
				}
			}); n != 0 {
				t.Errorf("500 warmed receives allocate %.0f objects", n)
			}
			if r.parser.Complete == frames {
				t.Error("measured receives decoded no frames")
			}
		})
	}
}
