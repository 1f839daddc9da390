// Package mavlink implements a compact MAVLink-v1-style telemetry downlink
// (framing, X.25 CRC with per-message seeding, streaming parser with resync)
// — the communication layer of Figure 5 that "delivers stats to the ground
// station". Traffic is one way: the drone emits heartbeat, attitude,
// position and battery frames, and nothing flows drone-ward.
package mavlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic is the frame start byte (MAVLink v1 uses 0xFE).
const Magic = 0xFE

// MaxPayload is the largest payload a frame can carry.
const MaxPayload = 255

// MsgID identifies a message type.
type MsgID uint8

// Message identifiers.
const (
	MsgHeartbeat MsgID = iota
	MsgAttitude
	MsgGlobalPosition
	MsgBatteryStatus
)

// crcExtra seeds the CRC per message type so sender/receiver disagree loudly
// on layout changes (the MAVLink CRC_EXTRA mechanism). An ID past the end is
// unknown: the encoder refuses it and the parser counts it as a CRC failure.
var crcExtra = [...]byte{
	MsgHeartbeat:      50,
	MsgAttitude:       39,
	MsgGlobalPosition: 104,
	MsgBatteryStatus:  154,
}

// Frame is one wire frame.
type Frame struct {
	Seq     uint8
	SysID   uint8
	CompID  uint8
	MsgID   MsgID
	Payload []byte
}

// X25 computes the CRC-16/X.25 (the MAVLink checksum) over data.
func X25(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = x25Byte(crc, b)
	}
	return crc
}

// x25Byte folds one byte into a running X.25 CRC.
func x25Byte(crc uint16, b byte) uint16 {
	tmp := uint16(b) ^ (crc & 0xFF)
	tmp ^= (tmp << 4) & 0xFF
	return (crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)
}

var (
	errPayloadTooLarge = errors.New("mavlink: payload too large")
	errUnknownMsgID    = errors.New("mavlink: unknown message id")
)

// AppendTo appends the frame's wire encoding to dst and returns the extended
// slice; with enough capacity in dst it does not allocate. On error dst is
// returned unchanged.
func (f Frame) AppendTo(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, errPayloadTooLarge
	}
	if int(f.MsgID) >= len(crcExtra) {
		return dst, errUnknownMsgID
	}
	start := len(dst)
	dst = append(dst, Magic, byte(len(f.Payload)), f.Seq, f.SysID, f.CompID, byte(f.MsgID))
	dst = append(dst, f.Payload...)
	crc := x25Byte(X25(dst[start+1:]), crcExtra[f.MsgID])
	return binary.LittleEndian.AppendUint16(dst, crc), nil
}

// maxFrameLen is the largest possible wire frame: header + max payload +
// CRC.
const maxFrameLen = 8 + MaxPayload

// DefaultMaxBuffer is the parser's default cap on buffered bytes. After any
// Push returns, at most one incomplete frame (< maxFrameLen bytes) remains
// buffered; the cap additionally bounds the transient working set while a
// large chunk is being consumed, so garbage floods cannot grow the backing
// array without bound.
const DefaultMaxBuffer = 1 << 14

// Parser is a streaming frame decoder: feed arbitrary byte chunks, collect
// complete frames; garbage and CRC failures are skipped with resync. The
// internal buffer is compacted as bytes are consumed and capped at
// MaxBuffer, so a garbage flood costs O(MaxBuffer) memory, not O(input).
type Parser struct {
	buf    []byte
	frames []Frame // Push's result, reused
	arena  []byte  // the returned frames' payloads, reused
	// MaxBuffer caps the buffered byte count (0 means DefaultMaxBuffer;
	// values below one max-length frame are raised to it).
	MaxBuffer int
	// BadCRC counts frames dropped for a CRC mismatch or an unknown ID.
	BadCRC   int
	Resyncs  int
	Complete int
	// Discarded counts every byte dropped without decoding: resync skips,
	// the sync bytes of frames that fail the CRC or carry an unknown ID,
	// and overflow drops. Conservation invariant:
	// bytes pushed == bytes in returned frames (8+len(Payload) each)
	//              + Discarded + BufferedBytes().
	Discarded int
}

// BufferedBytes returns the number of bytes currently held for reassembly.
func (p *Parser) BufferedBytes() int { return len(p.buf) }

// Push appends bytes and returns any complete frames decoded. Input larger
// than the buffer cap is consumed in bounded slices, so the working set
// stays O(MaxBuffer) regardless of chunk size.
// The frames and their payloads are parser-owned and valid until the next
// Push (the bufio.Scanner.Bytes contract): copy what must outlive it.
func (p *Parser) Push(data []byte) []Frame {
	max := p.MaxBuffer
	if max <= 0 {
		max = DefaultMaxBuffer
	}
	if max < maxFrameLen {
		max = maxFrameLen
	}
	p.frames, p.arena = p.frames[:0], p.arena[:0]
	for {
		if n := max - len(p.buf); n > 0 {
			if n > len(data) {
				n = len(data)
			}
			p.buf = append(p.buf, data[:n]...)
			data = data[n:]
		}
		p.parse()
		if len(data) == 0 {
			return p.frames
		}
	}
}

// parse consumes as many frames as possible from the buffer, compacting it
// afterwards so consumed prefixes do not pin the backing array. Payloads go
// to the arena; frames decoded before it grows keep the old array.
func (p *Parser) parse() {
	start := 0 // consumed prefix
	for {
		// find magic
		i := start
		for i < len(p.buf) && p.buf[i] != Magic {
			i++
		}
		if i > start {
			p.Resyncs++
			p.Discarded += i - start
			start = i
		}
		rem := p.buf[start:]
		if len(rem) < 8 {
			break
		}
		plen := int(rem[1])
		total := 8 + plen
		if len(rem) < total {
			break
		}
		// An unknown ID fails like a CRC mismatch: no seed can vouch for it.
		wire := binary.LittleEndian.Uint16(rem[6+plen : 8+plen])
		if int(rem[5]) < len(crcExtra) && wire == x25Byte(X25(rem[1:6+plen]), crcExtra[rem[5]]) {
			p.Complete++
			at := len(p.arena)
			p.arena = append(p.arena, rem[6:6+plen]...)
			p.frames = append(p.frames, Frame{
				Seq:     rem[2],
				SysID:   rem[3],
				CompID:  rem[4],
				MsgID:   MsgID(rem[5]),
				Payload: p.arena[at:len(p.arena):len(p.arena)],
			})
			start += total
		} else {
			p.BadCRC++
			p.Discarded++ // the sync byte is dropped; resync rescans the rest
			start++
		}
	}
	if start > 0 {
		// Compact in place: the copy overlaps, which copy() handles.
		n := copy(p.buf, p.buf[start:])
		p.buf = p.buf[:n]
	}
}

// --- Message payloads ---

// Heartbeat announces liveness and mode.
type Heartbeat struct {
	Mode   uint8
	Armed  bool
	TimeMS uint32
}

// Attitude reports roll/pitch/yaw and body rates.
type Attitude struct {
	TimeMS                       uint32
	Roll, Pitch, Yaw             float32
	RollRate, PitchRate, YawRate float32
}

// GlobalPosition reports position and velocity (local ENU here).
type GlobalPosition struct {
	TimeMS     uint32
	X, Y, Z    float32
	VX, VY, VZ float32
}

// BatteryStatus reports pack state.
type BatteryStatus struct {
	VoltageV float32
	SoC      float32 // 0..1
	PowerW   float32
}

func getF32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

func appendF32s(dst []byte, vs ...float32) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// AppendHeartbeat appends a heartbeat payload to dst.
func AppendHeartbeat(dst []byte, h Heartbeat) []byte {
	var armed byte
	if h.Armed {
		armed = 1
	}
	dst = append(dst, h.Mode, armed)
	return binary.LittleEndian.AppendUint32(dst, h.TimeMS)
}

// DecodeHeartbeat unpacks a heartbeat payload.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) != 6 {
		return Heartbeat{}, fmt.Errorf("mavlink: heartbeat payload %d bytes", len(b))
	}
	return Heartbeat{Mode: b[0], Armed: b[1] == 1, TimeMS: binary.LittleEndian.Uint32(b[2:])}, nil
}

// AppendAttitude appends an attitude payload to dst.
func AppendAttitude(dst []byte, a Attitude) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, a.TimeMS)
	return appendF32s(dst, a.Roll, a.Pitch, a.Yaw, a.RollRate, a.PitchRate, a.YawRate)
}

// DecodeAttitude unpacks an attitude payload.
func DecodeAttitude(b []byte) (Attitude, error) {
	if len(b) != 28 {
		return Attitude{}, fmt.Errorf("mavlink: attitude payload %d bytes", len(b))
	}
	return Attitude{
		TimeMS: binary.LittleEndian.Uint32(b),
		Roll:   getF32(b[4:]), Pitch: getF32(b[8:]), Yaw: getF32(b[12:]),
		RollRate: getF32(b[16:]), PitchRate: getF32(b[20:]), YawRate: getF32(b[24:]),
	}, nil
}

// AppendGlobalPosition appends a position payload to dst.
func AppendGlobalPosition(dst []byte, g GlobalPosition) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, g.TimeMS)
	return appendF32s(dst, g.X, g.Y, g.Z, g.VX, g.VY, g.VZ)
}

// DecodeGlobalPosition unpacks a position payload.
func DecodeGlobalPosition(b []byte) (GlobalPosition, error) {
	if len(b) != 28 {
		return GlobalPosition{}, fmt.Errorf("mavlink: position payload %d bytes", len(b))
	}
	return GlobalPosition{
		TimeMS: binary.LittleEndian.Uint32(b),
		X:      getF32(b[4:]), Y: getF32(b[8:]), Z: getF32(b[12:]),
		VX: getF32(b[16:]), VY: getF32(b[20:]), VZ: getF32(b[24:]),
	}, nil
}

// AppendBatteryStatus appends a battery payload to dst.
func AppendBatteryStatus(dst []byte, s BatteryStatus) []byte {
	return appendF32s(dst, s.VoltageV, s.SoC, s.PowerW)
}

// DecodeBatteryStatus unpacks a battery payload.
func DecodeBatteryStatus(b []byte) (BatteryStatus, error) {
	if len(b) != 12 {
		return BatteryStatus{}, fmt.Errorf("mavlink: battery payload %d bytes", len(b))
	}
	return BatteryStatus{VoltageV: getF32(b), SoC: getF32(b[4:]), PowerW: getF32(b[8:])}, nil
}
