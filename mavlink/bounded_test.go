package mavlink

import (
	"math/rand"
	"testing"
)

// frameWireBytes sums the wire size of decoded frames.
func frameWireBytes(frames []Frame) int {
	n := 0
	for _, f := range frames {
		n += 8 + len(f.Payload)
	}
	return n
}

// TestPushBoundedBuffer floods the parser with 10 MB of garbage — including
// plenty of magic bytes that start frames which never complete — and
// asserts the internal buffer stays bounded instead of retaining the flood.
func TestPushBoundedBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var p Parser
	const total = 10 << 20
	pushed, framed := 0, 0
	chunk := make([]byte, 64<<10)
	for pushed < total {
		r.Read(chunk)
		// Salt the garbage with magics so resync has constant work.
		for i := 0; i < len(chunk); i += 97 {
			chunk[i] = Magic
		}
		framed += frameWireBytes(p.Push(chunk))
		pushed += len(chunk)
	}
	bound := 2 * DefaultMaxBuffer
	if got := cap(p.buf); got > bound {
		t.Errorf("buffer capacity grew to %d after a %d byte flood (bound %d)", got, pushed, bound)
	}
	if got := p.BufferedBytes(); got >= maxFrameLen {
		t.Errorf("buffered bytes = %d, want < one frame (%d)", got, maxFrameLen)
	}
	// Byte conservation: everything pushed is decoded, discarded, or held.
	if got := framed + p.Discarded + p.BufferedBytes(); got != pushed {
		t.Errorf("byte accounting: frames %d + discarded %d + buffered %d = %d, pushed %d",
			framed, p.Discarded, p.BufferedBytes(), got, pushed)
	}
}

// TestPushSmallMaxBuffer verifies frames still decode when the configured
// cap is below one max-length frame (the parser raises it internally) and
// when valid frames straddle the chunked consumption boundary.
func TestPushSmallMaxBuffer(t *testing.T) {
	p := Parser{MaxBuffer: 16}
	var stream []byte
	const n = 50
	for i := 0; i < n; i++ {
		f := Frame{Seq: uint8(i), MsgID: MsgHeartbeat,
			Payload: AppendHeartbeat(nil, Heartbeat{Mode: uint8(i), TimeMS: uint32(i)})}
		raw, err := f.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, raw...)
	}
	got := len(p.Push(stream))
	if got != n {
		t.Fatalf("decoded %d frames, want %d", got, n)
	}
	if p.Discarded != 0 || p.BufferedBytes() != 0 {
		t.Errorf("clean stream: discarded=%d buffered=%d, want 0/0", p.Discarded, p.BufferedBytes())
	}
}

// TestPushByteConservationQuick checks the conservation invariant over
// random interleavings of valid frames and noise pushed byte-by-byte.
func TestPushByteConservationQuick(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var p Parser
	var stream []byte
	for i := 0; i < 40; i++ {
		if r.Intn(2) == 0 {
			f := Frame{Seq: uint8(i), MsgID: MsgAttitude,
				Payload: AppendAttitude(nil, Attitude{TimeMS: uint32(i)})}
			raw, _ := f.AppendTo(nil)
			stream = append(stream, raw...)
		} else {
			noise := make([]byte, r.Intn(40))
			r.Read(noise)
			stream = append(stream, noise...)
		}
	}
	framed := 0
	for _, b := range stream {
		framed += frameWireBytes(p.Push([]byte{b}))
	}
	if got := framed + p.Discarded + p.BufferedBytes(); got != len(stream) {
		t.Errorf("byte accounting: %d != pushed %d (framed %d, discarded %d, buffered %d)",
			got, len(stream), framed, p.Discarded, p.BufferedBytes())
	}
}
