package autopilot

import (
	"dronedse/mavlink"
)

// AppendTelemetry appends the autopilot's current state to dst as a burst of
// MAVLink frames (heartbeat, attitude, position, battery) for the ground
// station link, and returns the extended slice. seq provides the rolling
// sequence counter and is advanced by the number of frames emitted. Once dst
// has room for a burst, encoding does not allocate.
func (a *Autopilot) AppendTelemetry(dst []byte, seq *uint8) ([]byte, error) {
	est := a.EstimatedState()
	roll, pitch, yaw := est.Att.Euler()
	ms := uint32(a.Time() * 1000)

	var payloads [4][28]byte // the largest telemetry payload is 28 bytes
	frames := [4]mavlink.Frame{
		{MsgID: mavlink.MsgHeartbeat, Payload: mavlink.AppendHeartbeat(payloads[0][:0], mavlink.Heartbeat{
			Mode: uint8(a.mode), Armed: a.mode != Disarmed, TimeMS: ms})},
		{MsgID: mavlink.MsgAttitude, Payload: mavlink.AppendAttitude(payloads[1][:0], mavlink.Attitude{
			TimeMS: ms,
			Roll:   float32(roll), Pitch: float32(pitch), Yaw: float32(yaw),
			RollRate: float32(est.Omega.X), PitchRate: float32(est.Omega.Y), YawRate: float32(est.Omega.Z)})},
		{MsgID: mavlink.MsgGlobalPosition, Payload: mavlink.AppendGlobalPosition(payloads[2][:0], mavlink.GlobalPosition{
			TimeMS: ms,
			X:      float32(est.Pos.X), Y: float32(est.Pos.Y), Z: float32(est.Pos.Z),
			VX: float32(est.Vel.X), VY: float32(est.Vel.Y), VZ: float32(est.Vel.Z)})},
	}
	n := 3
	if a.battery != nil {
		frames[n] = mavlink.Frame{
			MsgID: mavlink.MsgBatteryStatus,
			Payload: mavlink.AppendBatteryStatus(payloads[3][:0], mavlink.BatteryStatus{
				VoltageV: float32(a.battery.Voltage()),
				SoC:      float32(a.battery.StateOfCharge()),
				PowerW:   float32(a.TotalPowerW())})}
		n++
	}
	start := len(dst)
	for _, f := range frames[:n] {
		f.Seq = *seq
		*seq++
		f.SysID = 1
		f.CompID = 1
		var err error
		if dst, err = f.AppendTo(dst); err != nil {
			return dst[:start], err
		}
	}
	return dst, nil
}
