package mavlink

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParserNeverPanicsOnGarbage pushes arbitrary byte soup through the
// parser: it must survive, keep its counters consistent, and never return
// a frame longer than the wire allows.
func TestParserNeverPanicsOnGarbage(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var p Parser
		frames := 0
		for _, c := range chunks {
			frames += len(p.Push(c))
		}
		if p.Complete != frames {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParserRecoversAfterGarbage interleaves valid frames with random noise
// at every boundary: every valid frame must still decode (the CRC may very
// occasionally bless a noise run as a frame — that is the protocol's
// documented 2^-16 residual risk — but real frames must not be lost).
func TestParserRecoversAfterGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var p Parser
	want := 0
	decodedHeartbeats := 0
	count := func(frames []Frame) {
		for _, fr := range frames {
			if fr.MsgID == MsgHeartbeat {
				if _, err := DecodeHeartbeat(fr.Payload); err == nil {
					decodedHeartbeats++
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		// Noise burst; frames stalled behind an earlier bogus header may
		// be released here.
		noise := make([]byte, r.Intn(30))
		r.Read(noise)
		count(p.Push(noise))
		// valid frame
		f := Frame{Seq: uint8(i), MsgID: MsgHeartbeat,
			Payload: AppendHeartbeat(nil, Heartbeat{Mode: uint8(i % 7), TimeMS: uint32(i)})}
		raw, err := f.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		want++
		count(p.Push(raw))
	}
	// A noise byte that looked like a frame header can hold real frames
	// hostage until its claimed length fills; flush the pipeline so the
	// delayed frames emerge (they are delayed, never dropped).
	count(p.Push(make([]byte, 600)))
	if decodedHeartbeats < want {
		t.Errorf("decoded %d of %d heartbeats through noise", decodedHeartbeats, want)
	}
}

// TestStreamSplitInvariance: however a valid stream is chunked, the same
// frames come out.
func TestStreamSplitInvariance(t *testing.T) {
	var stream []byte
	const n = 30
	for i := 0; i < n; i++ {
		f := Frame{Seq: uint8(i), MsgID: MsgGlobalPosition,
			Payload: AppendGlobalPosition(nil, GlobalPosition{TimeMS: uint32(i), X: float32(i)})}
		raw, _ := f.AppendTo(nil)
		stream = append(stream, raw...)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var p Parser
		got := 0
		rest := stream
		for len(rest) > 0 {
			k := 1 + r.Intn(11)
			if k > len(rest) {
				k = len(rest)
			}
			got += len(p.Push(rest[:k]))
			rest = rest[k:]
		}
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodersRejectShortPayloads: every decoder must reject truncated
// payloads rather than read out of bounds.
func TestDecodersRejectShortPayloads(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		// None of these may panic; errors are fine.
		DecodeHeartbeat(raw)
		DecodeAttitude(raw)
		DecodeGlobalPosition(raw)
		DecodeBatteryStatus(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzParserPush feeds arbitrary bytes, pushed in chunks of 1+split bytes,
// through one parser. Every push must keep the documented conservation
// invariant (bytes pushed = framed bytes + Discarded + BufferedBytes), and
// every returned frame, read before the next Push, must re-encode through
// AppendTo to a frame that decodes to the same header and payload. The
// committed corpus lives in testdata/fuzz/FuzzParserPush.
func FuzzParserPush(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		var p Parser
		pushed, framed := 0, 0
		for rest := data; len(rest) > 0; {
			n := min(1+int(split), len(rest))
			frames := p.Push(rest[:n])
			pushed += n
			rest = rest[n:]
			for _, fr := range frames {
				framed += 8 + len(fr.Payload)
				raw, err := fr.AppendTo(nil)
				if err != nil {
					t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
				}
				var q Parser
				got := q.Push(raw)
				if len(got) != 1 || got[0].Seq != fr.Seq || got[0].SysID != fr.SysID ||
					got[0].CompID != fr.CompID || got[0].MsgID != fr.MsgID ||
					!bytes.Equal(got[0].Payload, fr.Payload) {
					t.Fatalf("frame %+v re-encodes to %x, which decodes to %+v", fr, raw, got)
				}
			}
			if got := framed + p.Discarded + p.BufferedBytes(); got != pushed {
				t.Fatalf("byte ledger: framed %d + discarded %d + buffered %d = %d, pushed %d",
					framed, p.Discarded, p.BufferedBytes(), got, pushed)
			}
		}
	})
}
