// Package slam is a from-scratch visual SLAM system in the mold of the
// ORB-SLAM2 pipeline the paper offloads in §5: FAST-style corner detection,
// BRIEF-style binary descriptors, descriptor matching, Gauss-Newton pose
// tracking, keyframe mapping, and local/global bundle adjustment. Every
// kernel accounts its arithmetic work in a Stats ledger so the hardware
// platform models (internal/platform) can retime the same computation on
// RPi / TX2 / FPGA / ASIC, reproducing Figure 17 and Table 5.
//
// The hot kernels are written for throughput: detection fans out over fixed
// row bands through the shared parallelx pool and the per-frame grids and
// keypoint buffers are flat slices reused across frames, so the pipeline's
// output — keypoints, trajectory, and the Stats ledger — is byte-identical
// to the serial path at every pool size (asserted by parallel_test.go).
//
// Note on the FAST early-out: earlier revisions required 3 of the 4 compass
// points to differ strongly, which is the FAST-12 criterion; a genuine
// FAST-9 segment of 9 contiguous circle pixels can cover as few as 2 of the
// 4 compass points (indices 0/4/8/12), so that test wrongly rejected real
// corners. The pre-test now uses the 2-of-4 criterion, which is a necessary
// condition for a 9-run and therefore never rejects a true FAST-9 corner.
package slam

import (
	"math/bits"
	"math/rand"
	"sort"

	"dronedse/parallelx"
)

// Image is a grayscale image.
type Image struct {
	W, H int
	Pix  []uint8
}

// At returns the pixel at (x, y) with border clamping. The detection and
// description kernels index Pix directly on the unclamped interior and only
// fall back to At where a sampling pattern can leave the image.
func (im Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Keypoint is a detected corner.
type Keypoint struct {
	X, Y     float64
	Response int
	Desc     Descriptor
}

// Descriptor is a 256-bit binary descriptor.
type Descriptor [4]uint64

// HammingDistance counts differing bits between two descriptors.
func HammingDistance(a, b Descriptor) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// fastOffsets is the 16-pixel Bresenham circle of radius 3 used by FAST.
var fastOffsets = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// briefPattern is the fixed random sampling pattern for the descriptor,
// generated once with a fixed seed so descriptors are comparable across
// frames and processes. Offsets are in [-7, 7], which bounds the border
// clamping radius of describe.
var briefPattern = func() [256][4]int {
	r := rand.New(rand.NewSource(31415))
	var p [256][4]int
	for i := range p {
		p[i] = [4]int{r.Intn(15) - 7, r.Intn(15) - 7, r.Intn(15) - 7, r.Intn(15) - 7}
	}
	return p
}()

// briefRadius is the maximum |offset| in briefPattern: keypoints at least
// this far from every border take the unclamped describe fast path.
const briefRadius = 7

// detectBandRows is the fixed height of one detection band. Bands are
// aligned to multiples of it in y, so their boundaries depend only on the
// image height — never on the pool size — and, because it is a multiple of
// suppressCell, every suppression cell lies inside exactly one band.
const detectBandRows = 32

// suppressCell is the side of the square cells within which only the
// strongest corner survives.
const suppressCell = 8

// Detector runs FAST-style corner detection plus BRIEF-style description.
// The zero value is usable but unconfigured; a Detector is not safe for
// concurrent Detect calls (it reuses per-frame scratch buffers).
type Detector struct {
	// Threshold is the FAST intensity threshold.
	Threshold int
	// MaxFeatures caps the keypoints kept per frame (strongest first).
	MaxFeatures int
	// Stats receives the work accounting; nil disables accounting.
	Stats *Stats

	// scratch holds the per-frame buffers detection reuses across calls. A
	// System's detector works in the System's sequence arena; any other
	// detector gets its own scratch on first use. detect returns the
	// scratch's merged keypoint buffer itself, while Detect hands out a
	// copy that callers may retain across frames.
	scratch *detectScratch
}

// detectScratch is the detector's reusable per-frame storage: per-band
// candidate buffers and suppression grids for the parallel scan, the merged
// keypoint buffer, and the BRIEF pattern flattened to pixel strides for the
// current image width.
type detectScratch struct {
	bands    []bandScratch
	kps      []Keypoint // suppressed winners of every band, in band order
	briefOff [256][2]int32
	briefW   int // image width briefOff was computed for (0 = none)
	sorter   kpSorter
}

// bandScratch is one detection band's storage, touched only by the worker
// that scans the band.
type bandScratch struct {
	kps  []Keypoint // the band's corners, suppressed in place
	grid []int32    // the band's suppression cells: cell -> corner index, -1 empty
}

// kpSorter sorts keypoints by descending response. It lives in the scratch
// so sort.Sort sees a pointer and the interface conversion does not allocate
// (sort.Slice's reflect-based swapper costs several allocations per call).
type kpSorter struct{ kps []Keypoint }

func (s *kpSorter) Len() int           { return len(s.kps) }
func (s *kpSorter) Less(i, j int) bool { return s.kps[i].Response > s.kps[j].Response }
func (s *kpSorter) Swap(i, j int)      { s.kps[i], s.kps[j] = s.kps[j], s.kps[i] }

// NewDetector returns the default detector (ORB-SLAM keeps ~1000 features
// per frame on EuRoC; the scaled images here keep fewer).
func NewDetector(stats *Stats) *Detector {
	return &Detector{Threshold: 22, MaxFeatures: 400, Stats: stats}
}

// Detect finds corners and computes their descriptors. The pixel scan fans
// out over cell-aligned row bands via the parallelx pool; each band keeps
// the strongest corner per suppression cell, and the winners are
// concatenated in band order, which is exactly the row-major order of a
// serial scan followed by one global suppression pass. Description is
// parallelized per keypoint. The result is therefore identical at every
// pool size. The returned slice is the caller's.
func (d *Detector) Detect(im Image) []Keypoint {
	return append([]Keypoint(nil), d.detect(im)...)
}

// detect is Detect without the copy: it returns the detector's merged
// keypoint buffer, which stays valid until the next call on d. Tracking
// uses it directly, since ProcessFrameDetected keeps no keypoint slice.
func (d *Detector) detect(im Image) []Keypoint {
	if d.scratch == nil {
		d.scratch = new(detectScratch)
	}
	sc := d.scratch
	yEnd := im.H - 3 // y ranges over [3, H-3)
	if yEnd <= 3 {
		yEnd = 0 // no rows to scan: MapChunks runs no band
	}
	nb := (yEnd + detectBandRows - 1) / detectBandRows
	for len(sc.bands) < nb {
		sc.bands = append(sc.bands, bandScratch{})
	}
	bands := parallelx.MapChunks(yEnd, detectBandRows, func(ci, lo, hi int) []Keypoint {
		b := &sc.bands[ci]
		b.kps = d.detectBand(im, max(lo, 3), hi, b.kps[:0])
		b.kps, b.grid = suppressBand(b.kps, b.grid, lo, hi, im.W)
		return b.kps
	})
	kps := sc.kps[:0]
	for _, b := range bands {
		kps = append(kps, b...)
	}
	if d.Stats != nil {
		// ~10 ops per pixel on average: the compass-point early-out
		// rejects most pixels after a few comparisons.
		d.Stats.FeatureExtractionOps += uint64(im.W*im.H) * 10
	}

	sc.sorter.kps = kps
	sort.Sort(&sc.sorter)
	sc.sorter.kps = nil
	if len(kps) > d.MaxFeatures {
		kps = kps[:d.MaxFeatures]
	}
	if sc.briefW != im.W {
		for i, p := range briefPattern {
			sc.briefOff[i][0] = int32(p[1]*im.W + p[0])
			sc.briefOff[i][1] = int32(p[3]*im.W + p[2])
		}
		sc.briefW = im.W
	}
	parallelx.ChunkIndex(len(kps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kps[i].Desc = d.describeKp(im, kps[i])
		}
	})
	if d.Stats != nil {
		// 256 pairwise intensity comparisons per descriptor.
		d.Stats.FeatureExtractionOps += uint64(len(kps)) * 256 * 3
	}
	sc.kps = kps[:0] // keep the merged buffer for the next call
	return kps
}

// hasRun9 reports whether the 16-bit circular mask m contains 9 contiguous
// set bits, by run-length doubling: a marks starts of runs >= 2, b of runs
// >= 4, c of runs >= 8; c anded with the bit 8 ahead marks runs >= 9.
func hasRun9(m uint32) bool {
	rot1 := ((m >> 1) | (m << 15)) & 0xFFFF
	a := m & rot1
	rot2 := ((a >> 2) | (a << 14)) & 0xFFFF
	b := a & rot2
	rot4 := ((b >> 4) | (b << 12)) & 0xFFFF
	c := b & rot4
	rot8 := ((m >> 8) | (m << 8)) & 0xFFFF
	return c&rot8 != 0
}

// detectBand scans rows [y0, y1) for FAST-9 corners, appending to out. The
// scan range keeps the radius-3 circle inside the image, so every circle
// sample indexes Pix directly without border clamping. The segment test
// builds a 16-bit brighter or darker mask and checks for a 9-run with bit
// arithmetic instead of scanning the doubled circle.
func (d *Detector) detectBand(im Image, y0, y1 int, out []Keypoint) []Keypoint {
	thr := d.Threshold
	// Circle offsets as flat strides into Pix.
	var off [16]int
	for k, o := range fastOffsets {
		off[k] = o[1]*im.W + o[0]
	}
	pix := im.Pix
	w := im.W
	// t2 sizes the branchless "strictly inside (loT, hiT)" range check:
	// p is inside iff uint(p-loT-1) < uint(2*thr-1).
	t2 := uint(2*thr - 1)
	for y := y0; y < y1; y++ {
		row := y * w
		// Row slices for the compass points, all cut to one length n so
		// that indexing them with x < n needs no bounds check: rC is the
		// centre row, rE the centre row shifted 3 pixels east, rT and rB
		// the rows 3 above and below.
		rC := pix[row : row+w]
		rE := rC[3:]
		n := len(rE)
		rC = rC[:n]
		rT := pix[row-3*w:][:n]
		rB := pix[row+3*w:][:n]
		for x := 3; x < n; x++ {
			c := int(rC[x])
			hiT, loT := c+thr, c-thr
			// Fast reject, stage 1: a 9-run of the 16-circle spans half the
			// circle, so it covers at least one of any opposite compass
			// pair; if neither point 0 nor point 8 differs strongly the
			// pixel cannot be a FAST-9 corner. Two loads reject most of the
			// image before the four-point test below.
			p0 := int(rT[x])
			p8 := int(rB[x])
			if uint(p0-loT-1) < t2 && uint(p8-loT-1) < t2 {
				continue
			}
			// Stage 2: a 9-run must cover at least 2 of the 4 compass
			// points, so fewer than 2 strong compass differences on a side
			// rule out a 9-run on that side. Counted branchlessly: a point
			// cannot be both bright and dark, so the independent sums match
			// the if/else-if chain.
			p4 := int(rE[x])
			p12 := int(rC[x-3])
			hi := b2i(p0 >= hiT) + b2i(p4 >= hiT) + b2i(p8 >= hiT) + b2i(p12 >= hiT)
			lo := b2i(p0 <= loT) + b2i(p4 <= loT) + b2i(p8 <= loT) + b2i(p12 <= loT)
			// Full segment test, one side at a time: only a side that
			// passed stage 2 can hold a 9-run, so its mask alone is built,
			// branchlessly (candidate pixels are textured, so the per-point
			// outcomes are close to random and mispredict as branches).
			at := row + x
			corner := false
			if hi >= 2 {
				var bright uint32
				for k := 0; k < 16; k++ {
					bright |= uint32(b2u(int(pix[at+off[k]]) >= hiT)) << uint(k)
				}
				corner = hasRun9(bright)
			}
			if !corner && lo >= 2 {
				var dark uint32
				for k := 0; k < 16; k++ {
					dark |= uint32(b2u(int(pix[at+off[k]]) <= loT)) << uint(k)
				}
				corner = hasRun9(dark)
			}
			if !corner {
				continue
			}
			// Response: the largest |p - c| over the circle.
			resp := 0
			for k := 0; k < 16; k++ {
				p := int(pix[at+off[k]])
				resp = max(resp, p-c, c-p)
			}
			out = append(out, Keypoint{X: float64(x), Y: float64(y), Response: resp})
		}
	}
	return out
}

// suppressBand keeps only the strongest corner per suppressCell block (first
// occurrence wins ties), compacting kps — the corners of band rows [y0, y1)
// in detection order — in place and emitting the winners in detection order.
// The strongest-response sort downstream breaks ties by position in the
// merged slice, so any other order would make the surviving keypoint set
// (and every pose estimate built on it) vary run to run. y0 and y1 are
// multiples of suppressCell except at the image border, so every cell the
// band touches holds only this band's corners and the band-local winners
// are exactly a global pass's. w is the image width; grid is the band's
// reusable cell buffer, returned grown as needed.
func suppressBand(kps []Keypoint, grid []int32, y0, y1, w int) ([]Keypoint, []int32) {
	cw := (w + suppressCell - 1) / suppressCell
	r0 := y0 / suppressCell
	cells := ((y1+suppressCell-1)/suppressCell - r0) * cw
	grid = grow(grid, cells)
	for i := range grid {
		grid[i] = -1
	}
	for i, kp := range kps {
		key := (int(kp.Y)/suppressCell-r0)*cw + int(kp.X)/suppressCell
		if j := grid[key]; j < 0 || kp.Response > kps[j].Response {
			grid[key] = int32(i)
		}
	}
	n := 0
	for i := range kps {
		key := (int(kps[i].Y)/suppressCell-r0)*cw + int(kps[i].X)/suppressCell
		if grid[key] == int32(i) {
			kps[n] = kps[i]
			n++
		}
	}
	return kps[:n], grid
}

// describeKp computes the BRIEF-style descriptor at a keypoint. Interior
// keypoints (at least briefRadius from every border) sample Pix directly
// through the precomputed flat strides in scratch; only border keypoints pay
// for clamping via describe.
func (d *Detector) describeKp(im Image, kp Keypoint) Descriptor {
	x, y := int(kp.X), int(kp.Y)
	if x < briefRadius || y < briefRadius || x >= im.W-briefRadius || y >= im.H-briefRadius {
		return describe(im, kp)
	}
	var desc Descriptor
	at := y*im.W + x
	off := &d.scratch.briefOff
	pix := im.Pix
	for w := range desc {
		// Accumulate each 64-bit word branchlessly in a register: the
		// comparison compiles to a flag-set instruction instead of a
		// ~50%-mispredicted branch per bit.
		var bits uint64
		o := off[w*64 : w*64+64]
		for k := range o {
			bits |= b2u(pix[at+int(o[k][0])] > pix[at+int(o[k][1])]) << uint(k)
		}
		desc[w] = bits
	}
	return desc
}

// b2u converts a bool to 0/1 without a branch (the compiler lowers this
// pattern to a conditional-set instruction).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// b2i is b2u for int accumulators.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// describe computes the BRIEF-style descriptor at a keypoint with border
// clamping — the general path; interior keypoints take describeKp's
// unclamped one.
func describe(im Image, kp Keypoint) Descriptor {
	var d Descriptor
	x, y := int(kp.X), int(kp.Y)
	for i, p := range briefPattern {
		a := im.At(x+p[0], y+p[1])
		b := im.At(x+p[2], y+p[3])
		if a > b {
			d[i/64] |= 1 << (i % 64)
		}
	}
	return d
}

// Match pairs keypoints in a with map descriptors in b by brute-force
// Hamming distance with a ratio test. Returns index pairs (ia, ib).
//
// Accounting contract: Match charges stats.MatchingOps 16 ops (4 xor +
// popcount word operations) per candidate pair it actually examines, counted
// inside the search loop — not the nominal len(a)*len(b) — so the ledger
// stays honest if the search is ever pruned.
func Match(a []Keypoint, b []Descriptor, maxDist int, stats *Stats) [][2]int {
	var out [][2]int
	examined := uint64(0)
	for i := range a {
		best, second, bestJ := 257, 257, -1
		for j := range b {
			dist := HammingDistance(a[i].Desc, b[j])
			examined++
			if dist < best {
				second = best
				best, bestJ = dist, j
			} else if dist < second {
				second = dist
			}
		}
		if bestJ >= 0 && best <= maxDist && float64(best) < 0.9*float64(second) {
			out = append(out, [2]int{i, bestJ})
		}
	}
	if stats != nil {
		stats.MatchingOps += examined * 16
	}
	return out
}
