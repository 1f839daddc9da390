// Package offload models the remaining §2.2/Figure 5 deployment option the
// platform models do not cover: shipping the outer-loop computation to an
// off-board node over the drone's radio link ("a MAVLink protocol offloads
// computations to another node"). It answers when remote compute can
// replace an on-board accelerator: the link must carry the sensor stream
// and return results inside the outer loop's deadline, and the radio's own
// power draw must stay below the compute power it displaces.
package offload

import (
	"errors"

	"dronedse/slam"
)

// Link characterizes the radio between the drone and the compute node.
type Link struct {
	Name string
	// BandwidthMbps is the usable payload throughput.
	BandwidthMbps float64
	// RTTMS is the round-trip latency in milliseconds.
	RTTMS float64
	// TxPowerW is the airborne radio's transmit power draw while
	// streaming.
	TxPowerW float64
	// RangeM is the usable range.
	RangeM float64
}

// Telemetry915 is the paper's 915 MHz telemetry kit: fine for MAVLink
// state packets, hopeless for imagery.
func Telemetry915() Link {
	return Link{Name: "915MHz telemetry", BandwidthMbps: 0.2, RTTMS: 60, TxPowerW: 0.5, RangeM: 2000}
}

// WiFi5GHz is a high-bandwidth short-range link (companion-computer WiFi).
func WiFi5GHz() Link {
	return Link{Name: "5GHz WiFi", BandwidthMbps: 80, RTTMS: 6, TxPowerW: 1.8, RangeM: 150}
}

// LTE is a cellular link: decent bandwidth, long range, high latency.
func LTE() Link {
	return Link{Name: "LTE", BandwidthMbps: 12, RTTMS: 45, TxPowerW: 2.2, RangeM: 1e6}
}

// Node is the remote compute endpoint: a ground station many times faster
// than anything the drone can lift.
type Node struct {
	Name string
	// SpeedupVsRPi is the node's throughput on the SLAM ledger relative
	// to the on-board RPi.
	SpeedupVsRPi float64
}

// GroundStationGPU is a desktop-class node.
func GroundStationGPU() Node { return Node{Name: "ground GPU", SpeedupVsRPi: 40} }

// Workload describes the per-frame traffic of the offloaded task.
type Workload struct {
	// UplinkKB is the per-frame payload (compressed image + IMU).
	UplinkKB float64
	// DownlinkKB is the per-frame result (pose + sparse map delta).
	DownlinkKB float64
	// FPS is the sensor rate the loop must sustain.
	FPS float64
	// DeadlineMS is the outer-loop freshness deadline for the result.
	DeadlineMS float64
}

// SLAMWorkload is the §5 task as an offload candidate: ~25 KB per
// compressed 376x240 frame at 20 FPS, pose+delta back, and the outer loop
// consumes results with a relaxed ~150 ms deadline (mission planning has
// relaxed deadlines — §6).
func SLAMWorkload() Workload {
	return Workload{UplinkKB: 25, DownlinkKB: 2, FPS: 20, DeadlineMS: 150}
}

// Report is the feasibility verdict for one link/node pair.
type Report struct {
	Link Link
	Node Node
	// PerFrame latency components in milliseconds.
	UplinkMS, ComputeMS, DownlinkMS, RTTHalfMS float64
	// TotalMS is the end-to-end result age.
	TotalMS float64
	// ThroughputOK: the link sustains the stream at the sensor rate.
	ThroughputOK bool
	// DeadlineOK: the result age meets the outer-loop deadline.
	DeadlineOK bool
	// PowerDeltaW is the airborne power change vs. hosting the task on
	// an on-board RPi (+ means offloading costs power).
	PowerDeltaW float64
}

// Feasible reports overall viability.
func (r Report) Feasible() bool { return r.ThroughputOK && r.DeadlineOK }

// ErrNoFrames means the ledger carries no frame count to normalize by.
var ErrNoFrames = errors.New("offload: work ledger has no frames")

// ValidateLedger reports whether a SLAM work ledger can be priced per
// frame: Evaluate, and so NewSession, fail on exactly the ledgers it
// rejects.
func ValidateLedger(st slam.Stats) error {
	if st.Frames == 0 {
		return ErrNoFrames
	}
	return nil
}

// Evaluate computes the offload feasibility of running the measured SLAM
// work on the node over the link. onboardRPiW is the power the on-board
// host would burn (the §5.1 ~2 W SLAM increment).
func Evaluate(link Link, node Node, w Workload, st slam.Stats, onboardRPiW float64) (Report, error) {
	if err := ValidateLedger(st); err != nil {
		return Report{}, err
	}
	return evaluate(link, node, w, st, onboardRPiW), nil
}

// evaluate is Evaluate for a ledger that passes ValidateLedger.
func evaluate(link Link, node Node, w Workload, st slam.Stats, onboardRPiW float64) Report {
	r := Report{Link: link, Node: node}

	// Serialization delays.
	bytesPerSec := link.BandwidthMbps * 1e6 / 8
	r.UplinkMS = w.UplinkKB * 1024 / bytesPerSec * 1000
	r.DownlinkMS = w.DownlinkKB * 1024 / bytesPerSec * 1000
	r.RTTHalfMS = link.RTTMS / 2

	// Remote compute time per frame: the RPi-ledger seconds divided by
	// the node's speedup.
	rpiOpsPerSec := 300e6 // matches internal/platform's RPi calibration
	rpiPerFrameS := float64(st.TotalOps()) / rpiOpsPerSec / float64(st.Frames)
	r.ComputeMS = rpiPerFrameS / node.SpeedupVsRPi * 1000

	r.TotalMS = r.UplinkMS + r.RTTHalfMS + r.ComputeMS + r.RTTHalfMS + r.DownlinkMS

	// Throughput: the uplink must carry FPS frames per second.
	needMbps := w.UplinkKB * 1024 * 8 * w.FPS / 1e6
	r.ThroughputOK = needMbps <= link.BandwidthMbps*0.8 // 20% protocol overhead
	r.DeadlineOK = r.TotalMS <= w.DeadlineMS

	// Airborne power: radio TX replaces the on-board host's burn.
	r.PowerDeltaW = link.TxPowerW - onboardRPiW
	return r
}

// Compare evaluates the standard links against a node for one ledger.
func Compare(node Node, w Workload, st slam.Stats, onboardRPiW float64) ([]Report, error) {
	var out []Report
	for _, link := range []Link{Telemetry915(), WiFi5GHz(), LTE()} {
		r, err := Evaluate(link, node, w, st, onboardRPiW)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
