// Package roofline builds the visual performance model the UAV-roofline
// literature applies to autonomous-drone compute: every kernel of the
// flight stack is placed on an (arithmetic intensity, throughput) plane
// bounded by a platform's compute ceiling and its memory-bandwidth ceiling,
// so "make a hot path faster" becomes a measurement — a kernel under the
// slanted bandwidth roof needs data-movement work, one under the flat
// compute roof needs arithmetic work (or a better platform).
//
// The inputs are the repo's work ledgers, which all follow the slam.Stats
// accounting contract: ops are deterministic functions of the pipeline
// inputs alone, never of scheduling or pool size. Byte traffic is modeled
// analytically per kernel (see the byte-model comments below), so every
// number here — intensities, roofs, placements — is bit-identical at any
// parallelx pool size. Ceilings come from the platform tables
// (platform.Throughput, Platform.MemBandwidthGBs) derated by a streaming
// efficiency simulated on the microarch cache model.
package roofline

import (
	"fmt"
	"math"
	"sort"

	"dronedse/control"
	"dronedse/dataset"
	"dronedse/estimation"
	"dronedse/microarch"
	"dronedse/platform"
	"dronedse/slam"
)

// LoopOrbitSpec is the reference loop-closing sequence: a closed orbit that
// revisits its starting view, so a run exercises the pose-graph and
// global-BA kernels the sweep-pattern EuRoC specs leave cold. cmd/roofline
// and benchjson both ledger it, so their kernel rows stay comparable.
func LoopOrbitSpec() dataset.Spec {
	return dataset.Spec{Name: "ORBIT", Difficulty: dataset.Easy, Frames: 185, FPS: 20,
		Landmarks: 900, SpeedMS: 2.0, RoomHalfM: 8, Orbit: true, Seed: 777}
}

// Point is one kernel's position on the roofline plane: its accounted work
// and its modeled memory traffic.
type Point struct {
	// Name identifies the kernel (detect, match, local_ba, ...).
	Name string
	// Ops is the ledger's arithmetic-operation count.
	Ops uint64
	// Bytes is the modeled memory traffic that serviced those ops.
	Bytes uint64
	// Bucket is the platform throughput bucket that times this kernel's
	// compute roof; ignored when Scalar is set.
	Bucket platform.Kernel
	// Scalar marks kernels hosted on the flight computer's scalar cores
	// (EKF, control): their compute roof is platform.ScalarOpsPerSec on
	// every platform, because fitting a SLAM accelerator does not move
	// the autopilot loops onto it.
	Scalar bool
}

// AI returns the arithmetic intensity in ops per byte.
func (p Point) AI() float64 {
	if p.Bytes == 0 {
		return math.Inf(1)
	}
	return float64(p.Ops) / float64(p.Bytes)
}

// Per-kernel byte models. Each is the leading-order traffic of the kernel's
// data-access pattern, expressed per ledger op so the model composes with
// the existing accounting contract (deterministic, scheduling-independent):
//
//   - detect streams the full image twice per frame (the banded FAST scan
//     and the BRIEF description gather) in byte-sized pixel loads, so its
//     traffic comes from the frame geometry, not the op count.
//   - match reads a 32-byte descriptor pair per 16 charged Hamming ops and
//     a 24-byte point per 12 charged projection ops: ~2.5 B/op blended.
//   - Both BA alternation steps run 3x3/6x6 normal-equation blocks that
//     stay register/cache resident; traffic is the point/pose streams,
//     ~0.4 B/op at the ledger's per-residual charge.
//   - The pose graph streams an n×n Laplacian through an n³/3 Cholesky:
//     ~0.5 B/op.
//   - The EKF's 6x6 arena (≈3.7 KB) is cache resident; its traffic is the
//     arena sweep per call, ~0.35 B/op (predict) and ~0.4 B/op (update).
//   - The cascade controller touches a few hundred bytes of state per
//     invocation against ~150 charged ops: ~0.8 B/op.
const (
	matchBytesPerOp      = 2.5
	baBytesPerOp         = 0.4
	poseGraphBytesPerOp  = 0.5
	ekfPredictBytesPerOp = 0.35
	ekfUpdateBytesPerOp  = 0.4
	ctrlBytesPerOp       = 0.8
)

// detectPassesPerFrame is how many times detection streams the image: the
// FAST corner scan and the BRIEF description gather.
const detectPassesPerFrame = 2

// FromSLAM converts a sequence's SLAM ledger into roofline points. Width
// and height are the camera geometry the detect byte model needs.
func FromSLAM(st slam.Stats, width, height int) []Point {
	detBytes := uint64(st.Frames) * uint64(width) * uint64(height) * detectPassesPerFrame
	return []Point{
		{Name: "detect", Ops: st.FeatureExtractionOps, Bytes: detBytes,
			Bucket: platform.FeatureExtraction},
		{Name: "match", Ops: st.MatchingOps, Bytes: scaleBytes(st.MatchingOps, matchBytesPerOp),
			Bucket: platform.Matching},
		{Name: "local_ba", Ops: st.LocalBAOps, Bytes: scaleBytes(st.LocalBAOps, baBytesPerOp),
			Bucket: platform.LocalBA},
		{Name: "global_ba", Ops: st.GlobalBAOps, Bytes: scaleBytes(st.GlobalBAOps, baBytesPerOp),
			Bucket: platform.GlobalBA},
		{Name: "pose_graph", Ops: st.PoseGraphOps, Bytes: scaleBytes(st.PoseGraphOps, poseGraphBytesPerOp),
			Bucket: platform.GlobalBA},
	}
}

// FromFlight converts a flight's estimation and control ledgers into
// roofline points (scalar-core kernels).
func FromFlight(ekf estimation.EKFStats, ctrl control.CtrlStats) []Point {
	return []Point{
		{Name: "ekf_predict", Ops: ekf.PredictOps,
			Bytes: scaleBytes(ekf.PredictOps, ekfPredictBytesPerOp), Scalar: true},
		{Name: "ekf_update", Ops: ekf.UpdateOps,
			Bytes: scaleBytes(ekf.UpdateOps, ekfUpdateBytesPerOp), Scalar: true},
		{Name: "control", Ops: ctrl.TotalOps(),
			Bytes: scaleBytes(ctrl.TotalOps(), ctrlBytesPerOp), Scalar: true},
	}
}

// scaleBytes converts an op count to modeled bytes at a fixed ratio,
// rounding half-up deterministically.
func scaleBytes(ops uint64, bytesPerOp float64) uint64 {
	return uint64(float64(ops)*bytesPerOp + 0.5)
}

// Ceiling is one platform's pair of roofs.
type Ceiling struct {
	Platform string
	// Compute is the flat roof per throughput bucket, ops/s.
	Compute map[platform.Kernel]float64
	// ScalarOps is the flat roof for scalar-core kernels, ops/s.
	ScalarOps float64
	// MemBytesS is the effective memory bandwidth in bytes/s: the
	// platform's spec bandwidth derated by the simulated streaming
	// efficiency.
	MemBytesS float64
	// StreamEff is the derating factor that produced MemBytesS.
	StreamEff float64
}

// CeilingFor derives a platform's roofs: compute from its throughput
// table, memory from its spec bandwidth derated by eff, the
// microarch-simulated streaming efficiency of a SLAM-like access mix
// (StreamEfficiency).
func CeilingFor(p platform.Platform, eff float64) Ceiling {
	return Ceiling{
		Platform:  p.Name,
		Compute:   p.Throughput,
		ScalarOps: platform.ScalarOpsPerSec,
		MemBytesS: p.MemBandwidthGBs * 1e9 * eff,
		StreamEff: eff,
	}
}

// StreamEfficiency simulates the fraction of raw memory bandwidth a
// SLAM-like access mix sustains, using the microarch cache model's
// hit/miss counters: a unit-stride image/descriptor stream fetches whole
// lines and uses every byte, while the column walks of matrix-block code
// fetch a full line per useful word. The mix is 7 sequential words per
// strided word — the front end streams pixels and descriptors while the
// BA/EKF blocks do the strided touches. The result is useful bytes over
// fetched bytes, a pure function of the cache geometry and the fixed mix.
func StreamEfficiency() float64 {
	// RPi-class shared last-level cache: 512 KiB, 8-way, 64 B lines.
	const (
		lineBytes = 64
		wordBytes = 8
	)
	c := microarch.NewCache(512<<10, 8, lineBytes)
	var useful uint64
	// Sequential stream: 4 MiB of 8-byte touches (image scan, descriptor
	// walk) — far larger than the cache, so every line is fetched once
	// and fully consumed.
	for addr := uint64(0); addr < 4<<20; addr += wordBytes {
		c.Access(addr)
		useful += wordBytes
	}
	// Strided stream: column walks over a 1024x1024 float64 matrix (8 KiB
	// row stride — every touch a new line, one word used per line),
	// weighted at 1/7 of the sequential touches.
	const stride = 1024 * wordBytes
	base := uint64(1 << 30)
	for i := uint64(0); i < (4<<20)/wordBytes/7; i++ {
		c.Access(base + i*stride)
		useful += wordBytes
	}
	fetched := c.Misses * lineBytes
	return float64(useful) / float64(fetched)
}

// Placement is one kernel under one platform's roofs.
type Placement struct {
	Name string
	Ops  uint64
	AI   float64
	// ComputeRoof and MemRoof are in ops/s; MemRoof = AI × bandwidth is
	// the slanted roof evaluated at this kernel's intensity.
	ComputeRoof float64
	MemRoof     float64
	// Attainable is min(ComputeRoof, MemRoof) — the model's bound on this
	// kernel's throughput.
	Attainable float64
	// MemoryBound reports which roof binds.
	MemoryBound bool
	// RoofFrac is Attainable / ComputeRoof: how much of the platform's
	// compute the memory system lets this kernel use (1.0 = compute
	// bound).
	RoofFrac float64
}

// Place positions kernels under a platform's roofs, preserving input order.
func Place(pts []Point, c Ceiling) []Placement {
	out := make([]Placement, 0, len(pts))
	for _, p := range pts {
		roof := c.ScalarOps
		if !p.Scalar {
			roof = c.Compute[p.Bucket]
		}
		ai := p.AI()
		mem := ai * c.MemBytesS
		att := roof
		memBound := false
		if mem < att {
			att, memBound = mem, true
		}
		frac := 1.0
		if roof > 0 {
			frac = att / roof
		}
		out = append(out, Placement{
			Name: p.Name, Ops: p.Ops, AI: ai,
			ComputeRoof: roof, MemRoof: mem, Attainable: att,
			MemoryBound: memBound, RoofFrac: frac,
		})
	}
	return out
}

// Report is the full dashboard: one workload placed under every platform.
type Report struct {
	// Points are the measured kernels (ops, bytes, intensity).
	Points []Point
	// Ceilings and Placements are parallel per platform.
	Ceilings   []Ceiling
	Placements [][]Placement
}

// BuildReport places the kernel points under every Table 5 platform.
func BuildReport(pts []Point) Report {
	eff := StreamEfficiency()
	r := Report{Points: pts}
	for _, p := range platform.All() {
		c := CeilingFor(p, eff)
		r.Ceilings = append(r.Ceilings, c)
		r.Placements = append(r.Placements, Place(pts, c))
	}
	return r
}

// Table renders the report as fixed-width text: the kernel ledger first,
// then one placement block per platform. The output is a deterministic
// function of the report (golden-tested at several pool sizes).
func (r Report) Table() string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("kernel        ops            bytes          ai(ops/B)\n")
	for _, p := range r.Points {
		app("%-12s  %-13d  %-13d  %.3f\n", p.Name, p.Ops, p.Bytes, p.AI())
	}
	for i, c := range r.Ceilings {
		app("\n[%s]  mem %.2f GB/s (eff %.2f), scalar %.0f Mops/s\n",
			c.Platform, c.MemBytesS/1e9, c.StreamEff, c.ScalarOps/1e6)
		app("kernel        roof(Mops/s)   mem(Mops/s)    attainable     bound    frac\n")
		for _, pl := range r.Placements[i] {
			bound := "compute"
			if pl.MemoryBound {
				bound = "memory"
			}
			app("%-12s  %-13.1f  %-13.1f  %-13.1f  %-7s  %.3f\n",
				pl.Name, pl.ComputeRoof/1e6, pl.MemRoof/1e6, pl.Attainable/1e6, bound, pl.RoofFrac)
		}
	}
	return string(b)
}

// Figure renders an ASCII roofline plot for one platform: log-scale
// intensity on x, log-scale ops/s on y, the bandwidth slant and compute
// roofs drawn, kernels marked by their first letter. Deterministic.
func (r Report) Figure(platformIdx, width, height int) string {
	c := r.Ceilings[platformIdx]
	pls := r.Placements[platformIdx]
	// Log ranges: x in [2^-6, 2^10] ops/B — wide enough that every
	// platform's ridge point (bandwidth roof meets compute roof) is on
	// the canvas; y spans the roofs and points.
	minX, maxX := math.Log2(1.0/64), math.Log2(1024)
	maxRoof := c.ScalarOps
	for _, v := range c.Compute {
		if v > maxRoof {
			maxRoof = v
		}
	}
	minY, maxY := math.Log2(maxRoof)-10, math.Log2(maxRoof)+0.5
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	put := func(xl, yl float64, ch byte) {
		col := int((xl - minX) / (maxX - minX) * float64(width-1))
		row := int((maxY - yl) / (maxY - minY) * float64(height-1))
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = ch
		}
	}
	// Bandwidth slant and the highest compute roof.
	for col := 0; col < width; col++ {
		xl := minX + (maxX-minX)*float64(col)/float64(width-1)
		mem := math.Log2(math.Exp2(xl) * c.MemBytesS)
		if mem < math.Log2(maxRoof) {
			put(xl, mem, '/')
		} else {
			put(xl, math.Log2(maxRoof), '-')
		}
	}
	// Kernels, sorted by name for a stable draw order when cells collide.
	idx := make([]int, len(pls))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pls[idx[a]].Name < pls[idx[b]].Name })
	for _, i := range idx {
		pl := pls[i]
		if pl.Ops == 0 {
			continue
		}
		put(math.Log2(pl.AI), math.Log2(pl.Attainable), pl.Name[0])
	}
	var b []byte
	b = fmt.Appendf(b, "%s roofline (x: ops/B 1/64..1024 log2, y: attainable ops/s log2)\n", c.Platform)
	for _, row := range grid {
		b = append(b, row...)
		b = append(b, '\n')
	}
	return string(b)
}
