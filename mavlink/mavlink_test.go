package mavlink

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestX25KnownVector(t *testing.T) {
	// CRC-16/X.25-style accumulation: must be stable and non-trivial.
	a := X25([]byte("123456789"))
	b := X25([]byte("123456789"))
	if a != b {
		t.Fatal("CRC not deterministic")
	}
	if a == 0 || a == 0xFFFF {
		t.Fatalf("degenerate CRC value %#x", a)
	}
	if X25([]byte("123456788")) == a {
		t.Error("single-bit change not detected")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Seq: 7, SysID: 1, CompID: 2, MsgID: MsgAttitude, Payload: []byte{1, 2, 3, 4}}
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	frames := p.Push(raw)
	if len(frames) != 1 {
		t.Fatalf("decoded %d frames", len(frames))
	}
	got := frames[0]
	if got.Seq != 7 || got.SysID != 1 || got.CompID != 2 || got.MsgID != MsgAttitude ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	f := Frame{Payload: make([]byte, 300)}
	if _, err := f.Marshal(); err == nil {
		t.Error("oversized payload accepted")
	}
	prefix := []byte{1, 2, 3}
	if got, err := f.AppendTo(prefix); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("AppendTo with an oversized payload: %v, %x", err, got)
	}
}

// TestAppendTelemetryBurstPinned pins the exact wire bytes of a four-frame
// telemetry burst (heartbeat, attitude, position, battery), recorded from the
// allocating encoders the append forms replaced, and checks that AppendTo
// appends after existing bytes without allocating once dst has room.
func TestAppendTelemetryBurstPinned(t *testing.T) {
	const want = "fe06fa010100030140e20100b98a" +
		"fe1cfb01010140e20100cdcccc3dcdcc4cbe666646400ad7233c0ad7a3bc0000003fc463" +
		"fe1cfc01010240e2010000004841000050c00000a0400000c03f000000bf0000803ea87b" +
		"fe0cfd0101039a9931410000603f00803443e1cd"
	burst := func(dst []byte) []byte {
		var p [4][28]byte
		frames := [4]Frame{
			{Seq: 250, MsgID: MsgHeartbeat, Payload: AppendHeartbeat(p[0][:0],
				Heartbeat{Mode: 3, Armed: true, TimeMS: 123456})},
			{Seq: 251, MsgID: MsgAttitude, Payload: AppendAttitude(p[1][:0],
				Attitude{TimeMS: 123456, Roll: 0.1, Pitch: -0.2, Yaw: 3.1, RollRate: 0.01, PitchRate: -0.02, YawRate: 0.5})},
			{Seq: 252, MsgID: MsgGlobalPosition, Payload: AppendGlobalPosition(p[2][:0],
				GlobalPosition{TimeMS: 123456, X: 12.5, Y: -3.25, Z: 5, VX: 1.5, VY: -0.5, VZ: 0.25})},
			{Seq: 253, MsgID: MsgBatteryStatus, Payload: AppendBatteryStatus(p[3][:0],
				BatteryStatus{VoltageV: 11.1, SoC: 0.875, PowerW: 180.5})},
		}
		for _, f := range frames {
			f.SysID, f.CompID = 1, 1
			var err error
			if dst, err = f.AppendTo(dst); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	got := burst([]byte{0xAA})
	if hex.EncodeToString(got[1:]) != want || got[0] != 0xAA {
		t.Fatalf("burst bytes changed:\n got %x\nwant aa%s", got, want)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = burst(buf[:0]) }); n != 0 {
		t.Fatalf("encoding a burst into a buffer with room allocates %.1f objects", n)
	}
}

func TestParserHandlesFragmentation(t *testing.T) {
	var stream []byte
	want := 20
	for i := 0; i < want; i++ {
		f := Frame{Seq: uint8(i), MsgID: MsgHeartbeat, Payload: EncodeHeartbeat(Heartbeat{Mode: uint8(i)})}
		raw, _ := f.Marshal()
		stream = append(stream, raw...)
	}
	var p Parser
	var got int
	r := rand.New(rand.NewSource(5))
	for len(stream) > 0 {
		n := 1 + r.Intn(7)
		if n > len(stream) {
			n = len(stream)
		}
		got += len(p.Push(stream[:n]))
		stream = stream[n:]
	}
	if got != want {
		t.Errorf("decoded %d of %d fragmented frames", got, want)
	}
}

func TestParserResyncsThroughGarbage(t *testing.T) {
	f := Frame{MsgID: MsgHeartbeat, Payload: EncodeHeartbeat(Heartbeat{Mode: 3})}
	raw, _ := f.Marshal()
	stream := append([]byte{0x00, 0x12, 0xAB}, raw...)
	stream = append(stream, 0xFF, 0x01)
	stream = append(stream, raw...)
	var p Parser
	frames := p.Push(stream)
	if len(frames) != 2 {
		t.Fatalf("decoded %d frames through garbage, want 2", len(frames))
	}
	if p.Resyncs == 0 {
		t.Error("no resyncs counted")
	}
}

func TestParserRejectsCorruptCRC(t *testing.T) {
	f := Frame{MsgID: MsgHeartbeat, Payload: EncodeHeartbeat(Heartbeat{Mode: 3})}
	raw, _ := f.Marshal()
	raw[7] ^= 0x40 // flip a payload bit
	var p Parser
	if frames := p.Push(raw); len(frames) != 0 {
		t.Fatalf("corrupt frame accepted: %+v", frames)
	}
	if p.BadCRC == 0 {
		t.Error("bad CRC not counted")
	}
}

func TestCRCExtraDetectsMsgIDConfusion(t *testing.T) {
	// Same payload bytes under a different msgid must fail CRC, because
	// the CRC seed differs per message (the CRC_EXTRA mechanism).
	f := Frame{MsgID: MsgHeartbeat, Payload: EncodeHeartbeat(Heartbeat{Mode: 3})}
	raw, _ := f.Marshal()
	raw[5] = byte(MsgBatteryStatus) // lie about the type
	var p Parser
	if frames := p.Push(raw); len(frames) != 0 {
		t.Error("msgid confusion not caught by CRC_EXTRA")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := Heartbeat{Mode: 4, Armed: true, TimeMS: 123456}
	got, err := DecodeHeartbeat(EncodeHeartbeat(h))
	if err != nil || got != h {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeHeartbeat([]byte{1}); err == nil {
		t.Error("short heartbeat accepted")
	}
}

func TestAttitudeRoundTrip(t *testing.T) {
	a := Attitude{TimeMS: 9, Roll: 0.1, Pitch: -0.2, Yaw: 3.1, RollRate: 1, PitchRate: 2, YawRate: -3}
	got, err := DecodeAttitude(EncodeAttitude(a))
	if err != nil || got != a {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeAttitude(nil); err == nil {
		t.Error("empty attitude accepted")
	}
}

func TestGlobalPositionRoundTrip(t *testing.T) {
	g := GlobalPosition{TimeMS: 1, X: 10, Y: -20, Z: 30, VX: 1, VY: 2, VZ: 3}
	got, err := DecodeGlobalPosition(EncodeGlobalPosition(g))
	if err != nil || got != g {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestBatteryStatusRoundTrip(t *testing.T) {
	b := BatteryStatus{VoltageV: 11.1, SoC: 0.7, PowerW: 130}
	got, err := DecodeBatteryStatus(EncodeBatteryStatus(b))
	if err != nil || got != b {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestStatusTextRoundTrip(t *testing.T) {
	s := StatusText{Severity: 2, Text: "SLAM started"}
	got, err := DecodeStatusText(EncodeStatusText(s))
	if err != nil || got != s {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	long := StatusText{Text: string(make([]byte, 500))}
	if enc := EncodeStatusText(long); len(enc) > 201 {
		t.Error("status text not truncated")
	}
	if _, err := DecodeStatusText(nil); err == nil {
		t.Error("empty status text accepted")
	}
}

func TestCommandLongRoundTrip(t *testing.T) {
	c := CommandLong{Command: CmdTakeoff, Param: [4]float32{5, 0, 0, 0}}
	got, err := DecodeCommandLong(EncodeCommandLong(c))
	if err != nil || got != c {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestMissionItemRoundTrip(t *testing.T) {
	m := MissionItem{Index: 3, X: 1, Y: 2, Z: 3, HoldS: 1.5}
	got, err := DecodeMissionItem(EncodeMissionItem(m))
	if err != nil || got != m {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seq, sys, comp uint8, msgSel uint8, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		fr := Frame{Seq: seq, SysID: sys, CompID: comp,
			MsgID: MsgID(msgSel % 7), Payload: payload}
		raw, err := fr.Marshal()
		if err != nil {
			return false
		}
		var p Parser
		out := p.Push(raw)
		return len(out) == 1 && bytes.Equal(out[0].Payload, payload) &&
			out[0].MsgID == fr.MsgID && out[0].Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
