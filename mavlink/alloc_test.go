package mavlink

import (
	"bytes"
	"testing"
)

// positionStream returns n position frames whose payloads all differ, so a
// payload overwritten by a later frame's cannot go unnoticed.
func positionStream(t *testing.T, n int) (stream []byte, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		pl := AppendGlobalPosition(nil, GlobalPosition{TimeMS: uint32(i), X: float32(i), Y: -float32(i)})
		raw, err := Frame{Seq: uint8(i), MsgID: MsgGlobalPosition, Payload: pl}.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, raw...)
		payloads = append(payloads, pl)
	}
	return stream, payloads
}

// TestPushZeroAlloc: once its frame slice, payload arena and reassembly
// buffer have grown, a parser decodes a clean stream and a damaged one
// (garbage, a corrupted payload, an unknown ID, a frame split across
// pushes) without allocating.
func TestPushZeroAlloc(t *testing.T) {
	clean, _ := positionStream(t, 8)
	// Each push of damaged completes the frame the previous push began.
	damaged := append(append([]byte(nil), clean[20:36]...), 0x00, Magic, 0x13)
	body := len(damaged)
	damaged = append(damaged, clean...)
	damaged[body+36+10] ^= 0x10 // the second frame's payload
	damaged[body+2*36+5] = 9    // the third frame's ID
	damaged = append(damaged, clean[:20]...)
	for name, data := range map[string][]byte{"clean": clean, "damaged": damaged} {
		t.Run(name, func(t *testing.T) {
			var p Parser
			for i := 0; i < 4; i++ {
				p.Push(data)
			}
			frames, bad := 0, p.BadCRC
			if n := testing.AllocsPerRun(1, func() {
				for range 200 {
					frames = len(p.Push(data))
				}
			}); n != 0 {
				t.Errorf("200 warmed Pushes allocate %.0f objects", n)
			}
			if want := len(clean) / 36; name == "clean" && frames != want {
				t.Errorf("decoded %d frames per push, want %d", frames, want)
			}
			if name == "damaged" && (frames != len(clean)/36-1 || p.BadCRC == bad) {
				t.Errorf("damaged push: %d frames, %d CRC failures", frames, p.BadCRC-bad)
			}
		})
	}
}

// TestPushFramesOwnership: the frames one Push returns stay intact while
// that Push spans several parse rounds (input larger than MaxBuffer) and its
// payload arena grows, and the next Push reuses the parser's storage.
func TestPushFramesOwnership(t *testing.T) {
	stream, payloads := positionStream(t, 60)
	p := Parser{MaxBuffer: 300} // 60 frames × 36 B: at least 8 parse rounds
	frames := p.Push(stream)
	if len(frames) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(frames), len(payloads))
	}
	for i, f := range frames {
		if f.Seq != uint8(i) || !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("frame %d clobbered: seq %d payload %x, want %x", i, f.Seq, f.Payload, payloads[i])
		}
	}
	// Appending to one payload must not spill into the next.
	_ = append(frames[0].Payload, 0xEE)
	if !bytes.Equal(frames[1].Payload, payloads[1]) {
		t.Error("appending to a payload overwrote its neighbour")
	}
	again := p.Push(stream[:36])
	if len(again) != 1 || &again[0] != &frames[0] {
		t.Error("the next Push did not reuse the parser's frame slice")
	}
}
