// Package slam is a from-scratch visual SLAM system in the mold of the
// ORB-SLAM2 pipeline the paper offloads in §5: FAST-style corner detection,
// BRIEF-style binary descriptors, descriptor matching, Gauss-Newton pose
// tracking, keyframe mapping, and local/global bundle adjustment. Every
// kernel accounts its arithmetic work in a Stats ledger so the hardware
// platform models (dronedse/platform) can retime the same computation on
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
// corners. The pre-test now asks for two neighbouring compass points on
// one side, which every 9-run covers, so it never rejects a true FAST-9
// corner.
package slam

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sort"

	"dronedse/mathx"
	"dronedse/parallelx"
)

// Image is a grayscale image.
type Image struct {
	W, H int
	Pix  []uint8
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
// frames and processes: pair i compares the pixels at offsets
// (p[0], p[1]) and (p[2], p[3]) from the keypoint, each in [-briefRadius,
// briefRadius].
var briefPattern = func() [256][4]int {
	r := rand.New(mathx.NewSource(31415))
	var p [256][4]int
	for i := range p {
		p[i] = [4]int{r.Intn(15) - 7, r.Intn(15) - 7, r.Intn(15) - 7, r.Intn(15) - 7}
	}
	return p
}()

// briefRadius is the maximum |offset| in briefPattern, and briefSide the
// side of the square patch around a keypoint that the pattern samples.
const (
	briefRadius = 7
	briefSide   = 2*briefRadius + 1
)

// briefA and briefB are briefPattern as positions in a keypoint's patch
// (row-major, stride briefSide): pair i compares patch[briefA[i]] with
// patch[briefB[i]]. A patch fits in 256 bytes, so indexing a [256]uint8
// patch with a uint8 position, or these tables with a uint8 pair number,
// needs no bounds check.
var briefA, briefB = func() (a, b [256]uint8) {
	for i, p := range briefPattern {
		a[i] = uint8((p[1]+briefRadius)*briefSide + p[0] + briefRadius)
		b[i] = uint8((p[3]+briefRadius)*briefSide + p[2] + briefRadius)
	}
	return a, b
}()

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
	// Threshold is the FAST intensity threshold, used clamped to [1, 256].
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
// corner buffers and suppression grids for the parallel scan, the merged
// corner buffer, and the keypoint buffer detect returns.
type detectScratch struct {
	bands  []bandScratch
	cs     []corner   // suppressed winners of every band, in band order
	kps    []Keypoint // the strongest MaxFeatures of cs, described
	sorter cornerSorter
}

// bandScratch is one detection band's storage, touched only by the worker
// that scans the band.
type bandScratch struct {
	cs   []corner // the band's corners, suppressed in place
	grid []int32  // the band's suppression cells: cell -> corner index, -1 empty
}

// corner is a FAST corner as detectBand finds it: its pixel and response,
// in a fifth of a Keypoint's bytes. Only the corners that survive
// suppression and the MaxFeatures cap become Keypoints.
type corner struct{ x, y, resp int32 }

// cornerSorter sorts corners by descending response. sort.Sort's
// permutation depends only on the length and the Less outcomes, so sorting
// the corners orders them exactly as sorting their Keypoints would, ties
// included. It lives in the scratch so sort.Sort sees a pointer and the
// interface conversion does not allocate (sort.Slice's reflect-based
// swapper costs several allocations per call).
type cornerSorter struct{ cs []corner }

func (s *cornerSorter) Len() int           { return len(s.cs) }
func (s *cornerSorter) Less(i, j int) bool { return s.cs[i].resp > s.cs[j].resp }
func (s *cornerSorter) Swap(i, j int)      { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }

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
	bands := parallelx.MapChunks(yEnd, detectBandRows, func(ci, lo, hi int) []corner {
		b := &sc.bands[ci]
		b.cs = d.detectBand(im, max(lo, 3), hi, b.cs[:0])
		b.cs, b.grid = suppressBand(b.cs, b.grid, lo, hi, im.W)
		return b.cs
	})
	cs := sc.cs[:0]
	for _, b := range bands {
		cs = append(cs, b...)
	}
	if d.Stats != nil {
		// ~10 ops per pixel on average: the compass-point early-out
		// rejects most pixels after a few comparisons.
		d.Stats.FeatureExtractionOps += uint64(im.W*im.H) * 10
	}

	sc.sorter.cs = cs
	sort.Sort(&sc.sorter)
	sc.sorter.cs = nil
	sc.cs = cs[:0]
	if len(cs) > d.MaxFeatures {
		cs = cs[:d.MaxFeatures]
	}
	kps := sc.kps[:0]
	for _, c := range cs {
		kps = append(kps, Keypoint{X: float64(c.x), Y: float64(c.y), Response: int(c.resp)})
	}
	parallelx.ChunkIndex(len(kps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kps[i].Desc = describe(im, int(kps[i].X), int(kps[i].Y))
		}
	})
	if d.Stats != nil {
		// 256 pairwise intensity comparisons per descriptor.
		d.Stats.FeatureExtractionOps += uint64(len(kps)) * 256 * 3
	}
	sc.kps = kps[:0] // keep the keypoint buffer for the next call
	return kps
}

// Lane constants of the SWAR FAST kernel, which holds four pixels in the
// 16-bit lanes of a uint64: laneLo keeps the low byte of every lane,
// laneTop is every lane's top bit, laneLow15 every lane's other bits, and
// laneOne is 1 in every lane.
const (
	laneLo    = 0x00FF00FF00FF00FF
	laneTop   = 0x8000800080008000
	laneLow15 = 0x7FFF7FFF7FFF7FFF
	laneOne   = 0x0001000100010001
)

// load8 reads the 8 pixels pix[i:i+8] as one little-endian word, so pixel
// i+j lands in byte j. Only a run at the very end of the image reads past
// the last pixel; its missing bytes read as zero and belong to lanes the
// caller masks off.
func load8(pix []uint8, i int) uint64 {
	if i+8 <= len(pix) {
		return binary.LittleEndian.Uint64(pix[i:])
	}
	var b [8]uint8
	copy(b[:], pix[i:])
	return binary.LittleEndian.Uint64(b[:])
}

// Brightness tests on four pixels at once. With c the centre pixels and t
// the threshold in every lane, brightKey(c, t) = 0x8000 - c - t and
// darkKey(c, t) = 0x8000 + c - t per lane; then for a circle pixel p,
// p >= c+t is the top bit of p + brightKey and p <= c-t the top bit of
// darkKey - p. Every lane stays inside [0, 0x8000+255] for p and c in
// [0, 255] and t in [1, 256], so no carry or borrow crosses a lane.
func brightKey(c, t uint64) uint64 { return laneTop - (c + t) }
func darkKey(c, t uint64) uint64   { return (c | laneTop) - t }

// compass4 is the FAST pre-test on four pixels, one per 16-bit lane: n, e,
// s and w hold the compass points 0, 4, 8 and 12 (3 pixels north, east,
// south and west), kb and kd the centres' brightKey and darkKey. A 9-run
// of the 16-circle spans 9 contiguous positions, so it covers two
// neighbouring compass points: one of north and south and one of east and
// west. A lane's top bit is left set when both pairs hold a point brighter
// than c+t, or both a point darker than c-t; without it the pixel cannot
// be a FAST-9 corner.
func compass4(n, e, s, w, kb, kd uint64) uint64 {
	bright := ((n + kb) | (s + kb)) & ((e + kb) | (w + kb))
	dark := ((kd - n) | (kd - s)) & ((kd - e) | (kd - w))
	return (bright | dark) & laneTop
}

// rotLanes rotates every 16-bit lane of m right by r in [1, 15]: bit i of
// a lane of the result is bit (i+r) mod 16 of that lane of m.
func rotLanes(m uint64, r uint) uint64 {
	lo := uint64(0xFFFF>>r) * laneOne
	return m>>r&lo | m<<(16-r)&^lo
}

// run9Lanes sets a lane's top bit when its 16-bit circular mask holds 9
// contiguous set bits, by run-length doubling: a marks starts of runs >= 2,
// b of runs >= 4, c of runs >= 8; c anded with the bit 8 ahead marks runs
// >= 9, and a lane is kept when any of its bits is.
func run9Lanes(m uint64) uint64 {
	a := m & rotLanes(m, 1)
	b := a & rotLanes(a, 2)
	c := b & rotLanes(b, 4)
	r := c & rotLanes(m, 8)
	return (r&laneLow15 + laneLow15 | r) & laneTop
}

// segmentTest is the FAST-9 segment test on a run of eight pixels: circle[k]
// holds the words of their circle point k, and kbE, kdE, kbO and kdO the
// brightKey and darkKey of the run's even and odd pixels. Pixel j's verdict
// is bit 8j+7 of the result: set when 9 contiguous circle points are all
// at least c+t or all at most c-t. Every lane gathers its 16-bit brighter
// and darker masks by shifting each point's verdict in at the top, so
// point k ends at bit k.
func segmentTest(circle *[16]uint64, kbE, kdE, kbO, kdO uint64) uint64 {
	var bE, dE, bO, dO uint64
	for _, p := range circle {
		pE, pO := p&laneLo, p>>8&laneLo
		bE = bE>>1 | (pE+kbE)&laneTop
		dE = dE>>1 | (kdE-pE)&laneTop
		bO = bO>>1 | (pO+kbO)&laneTop
		dO = dO>>1 | (kdO-pO)&laneTop
	}
	// Lane i's top bit (16i+15) moves to bit 8j+7 of pixel j: 16i+7 for
	// even j = 2i, 16i+15 for odd j = 2i+1.
	return (run9Lanes(bE)|run9Lanes(dE))>>8 | run9Lanes(bO) | run9Lanes(dO)
}

// detectBand scans rows [y0, y1) for FAST-9 corners, appending to out. The
// scan range keeps the radius-3 circle inside the image, so every circle
// sample indexes Pix directly without border clamping.
//
// Pixels are tested eight at a time, with no branch per pixel: one word
// load per circle point, split into the run's even and odd pixels widened
// to 16-bit lanes, feeds four pixels' tests per word operation. The compass
// pre-test (compass4) skips the runs holding no candidate; for the rest the
// full segment test builds every lane's 16-bit brighter and darker masks
// and checks them for a 9-run (run9Lanes). Both end with a pixel's verdict
// in the top bit of its byte, so the corners' set bits are walked in x
// order into the response, the largest |p - c| over the circle.
func (d *Detector) detectBand(im Image, y0, y1 int, out []corner) []corner {
	// Below 1 a circle pixel equal to the centre would count as both
	// brighter and darker; from 256 on no pixel qualifies, as at 256.
	thr := uint64(min(max(d.Threshold, 1), 256)) * laneOne
	// Circle offsets as flat strides into Pix.
	var off [16]int
	for k, o := range fastOffsets {
		off[k] = o[1]*im.W + o[0]
	}
	pix := im.Pix
	w := im.W
	xEnd := w - 3 // x ranges over [3, W-3)
	for y := y0; y < y1; y++ {
		row := y * w
		for x0 := 3; x0 < xEnd; x0 += 8 {
			at := row + x0
			valid := ^uint64(0)
			if v := xEnd - x0; v < 8 {
				valid = 1<<(8*v) - 1
			}
			// Run pixel x0+j sits in byte j of a loaded word: even j in
			// lane j/2 of the low bytes, odd j in lane j/2 of the high.
			c := load8(pix, at)
			cE, cO := c&laneLo, c>>8&laneLo
			kbE, kbO := brightKey(cE, thr), brightKey(cO, thr)
			kdE, kdO := darkKey(cE, thr), darkKey(cO, thr)
			n, e := load8(pix, at+off[0]), load8(pix, at+off[4])
			s, wst := load8(pix, at+off[8]), load8(pix, at+off[12])
			// Lane i's top bit (16i+15) moves to bit 8j+7 of pixel j, as
			// in segmentTest.
			cand := compass4(n&laneLo, e&laneLo, s&laneLo, wst&laneLo, kbE, kdE)>>8 |
				compass4(n>>8&laneLo, e>>8&laneLo, s>>8&laneLo, wst>>8&laneLo, kbO, kdO)
			if cand&valid == 0 {
				continue
			}
			circle := [16]uint64{0: n, 4: e, 8: s, 12: wst}
			for k, o := range off {
				if k&3 != 0 {
					circle[k] = load8(pix, at+o)
				}
			}
			hits := segmentTest(&circle, kbE, kdE, kbO, kdO)
			for hits &= valid; hits != 0; hits &= hits - 1 {
				// Pixel j's byte starts at bit 8j, 7 below its verdict.
				sh := uint(bits.TrailingZeros64(hits) - 7)
				ctr := int32(c >> sh & 0xFF)
				lo, hi := ctr, ctr
				for k := range circle {
					v := int32(circle[k] >> sh & 0xFF)
					lo, hi = min(lo, v), max(hi, v)
				}
				out = append(out, corner{x: int32(x0) + int32(sh>>3), y: int32(y), resp: max(hi-ctr, ctr-lo)})
			}
		}
	}
	return out
}

// suppressBand keeps only the strongest corner per suppressCell block (first
// occurrence wins ties), compacting cs — the corners of band rows [y0, y1)
// in detection order — in place and emitting the winners in detection order.
// The strongest-response sort downstream breaks ties by position in the
// merged slice, so any other order would make the surviving keypoint set
// (and every pose estimate built on it) vary run to run. y0 and y1 are
// multiples of suppressCell except at the image border, so every cell the
// band touches holds only this band's corners and the band-local winners
// are exactly a global pass's. w is the image width; grid is the band's
// reusable cell buffer, returned grown as needed.
func suppressBand(cs []corner, grid []int32, y0, y1, w int) ([]corner, []int32) {
	cw := (w + suppressCell - 1) / suppressCell
	r0 := y0 / suppressCell
	cells := ((y1+suppressCell-1)/suppressCell - r0) * cw
	grid = grow(grid, cells)
	for i := range grid {
		grid[i] = -1
	}
	for i, c := range cs {
		key := (int(c.y)/suppressCell-r0)*cw + int(c.x)/suppressCell
		if j := grid[key]; j < 0 || c.resp > cs[j].resp {
			grid[key] = int32(i)
		}
	}
	n := 0
	for i, c := range cs {
		if grid[(int(c.y)/suppressCell-r0)*cw+int(c.x)/suppressCell] == int32(i) {
			cs[n] = c
			n++
		}
	}
	return cs[:n], grid
}

// describe computes the BRIEF-style descriptor of the keypoint at pixel
// (x, y). It copies the keypoint's briefSide x briefSide neighbourhood into
// a patch once, clamping rows and columns that leave the image to the
// nearest border pixel, and then samples the patch through briefA and
// briefB.
func describe(im Image, x, y int) Descriptor {
	var patch [256]uint8
	x0 := x - briefRadius
	inside := x0 >= 0 && x0+briefSide <= im.W
	for r := 0; r < briefSide; r++ {
		yy := min(max(y-briefRadius+r, 0), im.H-1)
		row := im.Pix[yy*im.W : yy*im.W+im.W]
		dst := patch[r*briefSide : r*briefSide+briefSide]
		if inside {
			// Two overlapping 8-byte moves instead of a 15-byte copy.
			src := row[x0 : x0+briefSide]
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
			binary.LittleEndian.PutUint64(dst[briefSide-8:], binary.LittleEndian.Uint64(src[briefSide-8:]))
			continue
		}
		for c := range dst {
			dst[c] = row[min(max(x0+c, 0), im.W-1)]
		}
	}
	// The four words build side by side, each shifting its bits in from
	// the top pair down (k wraps past 0 to 255, which ends the loop), so
	// bit k of word w is pair 64w+k. The comparison
	// compiles to a flag-set instruction instead of a ~50%-mispredicted
	// branch per bit, and the four chains do not wait on each other.
	var w0, w1, w2, w3 uint64
	for k := uint8(63); k < 64; k-- {
		w0 = w0<<1 | b2u(patch[briefA[k]] > patch[briefB[k]])
		w1 = w1<<1 | b2u(patch[briefA[k+64]] > patch[briefB[k+64]])
		w2 = w2<<1 | b2u(patch[briefA[k+128]] > patch[briefB[k+128]])
		w3 = w3<<1 | b2u(patch[briefA[k+192]] > patch[briefB[k+192]])
	}
	return Descriptor{w0, w1, w2, w3}
}

// b2u converts a bool to 0/1 without a branch (the compiler lowers this
// pattern to a conditional-set instruction).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
