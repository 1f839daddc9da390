// Package mavlink implements a compact MAVLink-v1-style telemetry protocol
// (framing, X.25 CRC with per-message seeding, streaming parser with resync)
// — the communication layer of Figure 5 that "delivers stats to the ground
// station and, if necessary, offloads computations to another node".
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
	MsgStatusText
	MsgCommandLong
	MsgMissionItem
	MsgParamSet
	MsgParamValue
)

// crcExtra seeds the CRC per message type so sender/receiver disagree loudly
// on layout changes (the MAVLink CRC_EXTRA mechanism).
var crcExtra = map[MsgID]byte{
	MsgHeartbeat:      50,
	MsgAttitude:       39,
	MsgGlobalPosition: 104,
	MsgBatteryStatus:  154,
	MsgStatusText:     83,
	MsgCommandLong:    152,
	MsgMissionItem:    254,
	MsgParamSet:       168,
	MsgParamValue:     220,
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

var errPayloadTooLarge = errors.New("mavlink: payload too large")

// AppendTo appends the frame's wire encoding to dst and returns the extended
// slice; with enough capacity in dst it does not allocate. On error dst is
// returned unchanged.
func (f Frame) AppendTo(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, errPayloadTooLarge
	}
	start := len(dst)
	dst = append(dst, Magic, byte(len(f.Payload)), f.Seq, f.SysID, f.CompID, byte(f.MsgID))
	dst = append(dst, f.Payload...)
	crc := x25Byte(X25(dst[start+1:]), crcExtra[f.MsgID])
	return binary.LittleEndian.AppendUint16(dst, crc), nil
}

// Marshal serializes the frame into a new slice.
func (f Frame) Marshal() ([]byte, error) { return f.AppendTo(make([]byte, 0, 8+len(f.Payload))) }

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
	buf []byte
	// MaxBuffer caps the buffered byte count (0 means DefaultMaxBuffer;
	// values below one max-length frame are raised to it).
	MaxBuffer int
	BadCRC    int
	Resyncs   int
	Complete  int
	// Discarded counts every byte dropped without decoding: resync skips,
	// CRC-failed sync bytes, and overflow drops. Conservation invariant:
	// bytes pushed == bytes in returned frames (8+len(Payload) each)
	//              + Discarded + BufferedBytes().
	Discarded int
}

// BufferedBytes returns the number of bytes currently held for reassembly.
func (p *Parser) BufferedBytes() int { return len(p.buf) }

// BufferCap returns the capacity of the internal buffer (tests assert the
// garbage-flood bound on it).
func (p *Parser) BufferCap() int { return cap(p.buf) }

// Push appends bytes and returns any complete frames decoded. Input larger
// than the buffer cap is consumed in bounded slices, so the working set
// stays O(MaxBuffer) regardless of chunk size.
func (p *Parser) Push(data []byte) []Frame {
	max := p.MaxBuffer
	if max <= 0 {
		max = DefaultMaxBuffer
	}
	if max < maxFrameLen {
		max = maxFrameLen
	}
	var out []Frame
	for {
		if n := max - len(p.buf); n > 0 {
			if n > len(data) {
				n = len(data)
			}
			p.buf = append(p.buf, data[:n]...)
			data = data[n:]
		}
		out = p.parse(out)
		if len(data) == 0 {
			return out
		}
	}
}

// parse consumes as many frames as possible from the buffer, compacting it
// afterwards so consumed prefixes do not pin the backing array.
func (p *Parser) parse(out []Frame) []Frame {
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
		frame := Frame{
			Seq:     rem[2],
			SysID:   rem[3],
			CompID:  rem[4],
			MsgID:   MsgID(rem[5]),
			Payload: append([]byte(nil), rem[6:6+plen]...),
		}
		wire := binary.LittleEndian.Uint16(rem[6+plen : 8+plen])
		calc := x25Byte(X25(rem[1:6+plen]), crcExtra[frame.MsgID])
		if wire == calc {
			p.Complete++
			out = append(out, frame)
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
	return out
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

// StatusText carries a severity-tagged log line.
type StatusText struct {
	Severity uint8
	Text     string
}

// CommandLong carries a parametrized command (arm, takeoff, set-mode...).
type CommandLong struct {
	Command uint16
	Param   [4]float32
}

// Command numbers for CommandLong.
const (
	CmdArm uint16 = iota + 400
	CmdTakeoff
	CmdLand
	CmdRTL
	CmdStartMission
)

// MissionItem uploads one waypoint.
type MissionItem struct {
	Index   uint16
	X, Y, Z float32
	HoldS   float32
}

func putF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }
func getF32(b []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

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

// EncodeHeartbeat packs a heartbeat frame payload.
func EncodeHeartbeat(h Heartbeat) []byte { return AppendHeartbeat(make([]byte, 0, 6), h) }

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

// EncodeAttitude packs an attitude payload.
func EncodeAttitude(a Attitude) []byte { return AppendAttitude(make([]byte, 0, 28), a) }

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

// EncodeGlobalPosition packs a position payload.
func EncodeGlobalPosition(g GlobalPosition) []byte {
	return AppendGlobalPosition(make([]byte, 0, 28), g)
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

// EncodeBatteryStatus packs a battery payload.
func EncodeBatteryStatus(s BatteryStatus) []byte {
	return AppendBatteryStatus(make([]byte, 0, 12), s)
}

// DecodeBatteryStatus unpacks a battery payload.
func DecodeBatteryStatus(b []byte) (BatteryStatus, error) {
	if len(b) != 12 {
		return BatteryStatus{}, fmt.Errorf("mavlink: battery payload %d bytes", len(b))
	}
	return BatteryStatus{VoltageV: getF32(b), SoC: getF32(b[4:]), PowerW: getF32(b[8:])}, nil
}

// EncodeStatusText packs a status-text payload (text truncated to 200 bytes).
func EncodeStatusText(s StatusText) []byte {
	txt := s.Text
	if len(txt) > 200 {
		txt = txt[:200]
	}
	b := make([]byte, 1+len(txt))
	b[0] = s.Severity
	copy(b[1:], txt)
	return b
}

// DecodeStatusText unpacks a status-text payload.
func DecodeStatusText(b []byte) (StatusText, error) {
	if len(b) < 1 {
		return StatusText{}, errors.New("mavlink: empty status text")
	}
	return StatusText{Severity: b[0], Text: string(b[1:])}, nil
}

// EncodeCommandLong packs a command payload.
func EncodeCommandLong(c CommandLong) []byte {
	b := make([]byte, 18)
	binary.LittleEndian.PutUint16(b, c.Command)
	for i, v := range c.Param {
		putF32(b[2+4*i:], v)
	}
	return b
}

// DecodeCommandLong unpacks a command payload.
func DecodeCommandLong(b []byte) (CommandLong, error) {
	if len(b) != 18 {
		return CommandLong{}, fmt.Errorf("mavlink: command payload %d bytes", len(b))
	}
	c := CommandLong{Command: binary.LittleEndian.Uint16(b)}
	for i := range c.Param {
		c.Param[i] = getF32(b[2+4*i:])
	}
	return c, nil
}

// EncodeMissionItem packs a waypoint payload.
func EncodeMissionItem(m MissionItem) []byte {
	b := make([]byte, 18)
	binary.LittleEndian.PutUint16(b, m.Index)
	putF32(b[2:], m.X)
	putF32(b[6:], m.Y)
	putF32(b[10:], m.Z)
	putF32(b[14:], m.HoldS)
	return b
}

// DecodeMissionItem unpacks a waypoint payload.
func DecodeMissionItem(b []byte) (MissionItem, error) {
	if len(b) != 18 {
		return MissionItem{}, fmt.Errorf("mavlink: mission item payload %d bytes", len(b))
	}
	return MissionItem{
		Index: binary.LittleEndian.Uint16(b),
		X:     getF32(b[2:]), Y: getF32(b[6:]), Z: getF32(b[10:]),
		HoldS: getF32(b[14:]),
	}, nil
}

// Param carries one named tunable — the MAVLink parameter protocol the
// artifact uses to reconfigure the drone mid-flight. Names are up to 16
// ASCII characters, zero-padded on the wire.
type Param struct {
	Name  string
	Value float32
}

// EncodeParam packs a PARAM_SET / PARAM_VALUE payload.
func EncodeParam(p Param) []byte {
	b := make([]byte, 20)
	n := p.Name
	if len(n) > 16 {
		n = n[:16]
	}
	copy(b, n)
	putF32(b[16:], p.Value)
	return b
}

// DecodeParam unpacks a parameter payload.
func DecodeParam(b []byte) (Param, error) {
	if len(b) != 20 {
		return Param{}, fmt.Errorf("mavlink: param payload %d bytes", len(b))
	}
	name := b[:16]
	end := 0
	for end < 16 && name[end] != 0 {
		end++
	}
	return Param{Name: string(name[:end]), Value: getF32(b[16:])}, nil
}
