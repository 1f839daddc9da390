package slam

import (
	"math/rand"
	"reflect"
	"testing"
)

// hasRun9 reports whether the 16-bit circular mask m contains 9 contiguous
// set bits, by run-length doubling: a marks starts of runs >= 2, b of runs
// >= 4, c of runs >= 8; c anded with the bit 8 ahead marks runs >= 9. It is
// run9Lanes on one mask, and scalarDetectBand's segment test.
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scalarDetectBand is the per-pixel FAST-9 band scan detectBand replaced:
// the two-stage compass early-out, then a branchless 16-bit mask per side
// that passed it, then the response. detectBand must reproduce it exactly.
func scalarDetectBand(im Image, thr, y0, y1 int, out []Keypoint) []Keypoint {
	var off [16]int
	for k, o := range fastOffsets {
		off[k] = o[1]*im.W + o[0]
	}
	pix := im.Pix
	w := im.W
	// p is strictly inside (loT, hiT) iff uint(p-loT-1) < t2.
	t2 := uint(2*thr - 1)
	for y := y0; y < y1; y++ {
		row := y * w
		rC := pix[row : row+w]
		rE := rC[3:]
		n := len(rE)
		rC = rC[:n]
		rT := pix[row-3*w:][:n]
		rB := pix[row+3*w:][:n]
		for x := 3; x < n; x++ {
			c := int(rC[x])
			hiT, loT := c+thr, c-thr
			p0 := int(rT[x])
			p8 := int(rB[x])
			if uint(p0-loT-1) < t2 && uint(p8-loT-1) < t2 {
				continue
			}
			p4 := int(rE[x])
			p12 := int(rC[x-3])
			hi := b2i(p0 >= hiT) + b2i(p4 >= hiT) + b2i(p8 >= hiT) + b2i(p12 >= hiT)
			lo := b2i(p0 <= loT) + b2i(p4 <= loT) + b2i(p8 <= loT) + b2i(p12 <= loT)
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

// keypointsOf converts detectBand's corners to the Keypoints the scalar
// scans return.
func keypointsOf(cs []corner) []Keypoint {
	var kps []Keypoint
	for _, c := range cs {
		kps = append(kps, Keypoint{X: float64(c.x), Y: float64(c.y), Response: int(c.resp)})
	}
	return kps
}

// clampAt returns the pixel at (x, y), clamping coordinates that leave the
// image to the nearest border pixel.
func clampAt(im Image, x, y int) uint8 {
	x = min(max(x, 0), im.W-1)
	y = min(max(y, 0), im.H-1)
	return im.Pix[y*im.W+x]
}

// clampedDescribe is the descriptor as border clamping defines it: each of
// the 256 pattern pairs read through clampAt. describe must reproduce it.
func clampedDescribe(im Image, kp Keypoint) Descriptor {
	var d Descriptor
	x, y := int(kp.X), int(kp.Y)
	for i, p := range briefPattern {
		a := clampAt(im, x+p[0], y+p[1])
		b := clampAt(im, x+p[2], y+p[3])
		if a > b {
			d[i/64] |= 1 << (i % 64)
		}
	}
	return d
}

// TestRun9LanesMatchesHasRun9 checks the lane-parallel 9-run test against
// the scalar one on every 16-bit mask, in every lane, beside neighbours
// that are all set or all clear so a carry across lanes would show.
func TestRun9LanesMatchesHasRun9(t *testing.T) {
	for m := uint64(0); m < 1<<16; m++ {
		want := uint64(0)
		if hasRun9(uint32(m)) {
			want = 0x8000
		}
		for lane := uint(0); lane < 4; lane++ {
			for _, fill := range []uint64{0, 0xFFFF} {
				word := fill*laneOne&^(0xFFFF<<(16*lane)) | m<<(16*lane)
				got := run9Lanes(word) >> (16 * lane) & 0xFFFF
				if got != want {
					t.Fatalf("run9Lanes lane %d of %016b (others %04x) = %04x, want %04x", lane, m, fill, got, want)
				}
			}
		}
	}
}

// fastTestImages are detection inputs chosen to break a lane-parallel scan:
// random texture, flat images, rows of 0 and 255 where c-thr and c+thr
// leave [0, 255], widths that are not a multiple of 8, and the smallest
// images that still have a scan row or column.
func fastTestImages() map[string]Image {
	r := rand.New(rand.NewSource(5))
	random := func(w, h int) Image {
		im := Image{W: w, H: h, Pix: make([]uint8, w*h)}
		for i := range im.Pix {
			im.Pix[i] = uint8(r.Intn(256))
		}
		return im
	}
	flat := func(w, h int, v uint8) Image {
		im := Image{W: w, H: h, Pix: make([]uint8, w*h)}
		for i := range im.Pix {
			im.Pix[i] = v
		}
		return im
	}
	// Rows alternating between 0 and 255 bands, with random pixels
	// sprinkled in, so circles straddle both extremes.
	extremes := func(w, h int) Image {
		im := flat(w, h, 0)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				switch {
				case r.Intn(5) == 0:
					im.Pix[y*w+x] = uint8(r.Intn(256))
				case (y/2)%2 == 1:
					im.Pix[y*w+x] = 255
				}
			}
		}
		return im
	}
	// Isolated pixels of 0 on 255 and of 255 on 0: every circle pixel
	// differs from such a centre by exactly 255, the largest threshold that
	// still finds a corner.
	dots := func(w, h int, bg, dot uint8) Image {
		im := flat(w, h, bg)
		for y := 3; y < h-3; y += 7 {
			for x := 3 + y%5; x < w-3; x += 9 {
				im.Pix[y*w+x] = dot
			}
		}
		return im
	}
	// Low-contrast blobs: a few grey levels, so many circles sit near the
	// threshold.
	blobs := func(w, h int) Image {
		im := Image{W: w, H: h, Pix: make([]uint8, w*h)}
		for i := range im.Pix {
			im.Pix[i] = uint8(100 + 22*r.Intn(3))
		}
		return im
	}
	return map[string]Image{
		"random376x240":   random(376, 240),
		"random61x37":     random(61, 37),
		"random13x9":      random(13, 9),
		"random7x7":       random(7, 7),
		"random8x7":       random(8, 7),
		"random100x7":     random(100, 7),
		"flat0":           flat(40, 20, 0),
		"flat255":         flat(40, 20, 255),
		"flat128":         flat(33, 19, 128),
		"extremes77x41":   extremes(77, 41),
		"extremes14x14":   extremes(14, 14),
		"blobs90x50":      blobs(90, 50),
		"darkDots50x40":   dots(50, 40, 255, 0),
		"brightDots50x40": dots(50, 40, 0, 255),
		"synth190x140":    synthImage(190, 140, [][2]int{{25, 25}, {100, 70}, {160, 120}, {40, 110}}, 99),
		"synth20x7":       synthImage(20, 7, [][2]int{{10, 3}}, 14),
		"randomWide17x7":  random(17, 7),
	}
}

// TestDetectBandMatchesScalar pins the lane-parallel band scan to
// scalarDetectBand: the same corners, in the same order, with the same
// responses, at thresholds 1, 22 and 100, over whole images and over one
// band at a time.
func TestDetectBandMatchesScalar(t *testing.T) {
	for name, im := range fastTestImages() {
		for _, thr := range []int{1, 22, 100, 254, 255} {
			d := &Detector{Threshold: thr}
			want := scalarDetectBand(im, thr, 3, im.H-3, nil)
			got := keypointsOf(d.detectBand(im, 3, im.H-3, nil))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s thr=%d: detectBand found %d corners, scalar %d (or they differ)", name, thr, len(got), len(want))
			}
			var cs []corner
			for y := 3; y < im.H-3; y += 5 {
				cs = d.detectBand(im, y, min(y+5, im.H-3), cs)
			}
			if banded := keypointsOf(cs); !reflect.DeepEqual(banded, want) {
				t.Fatalf("%s thr=%d: five-row bands found %d corners, scalar %d", name, thr, len(banded), len(want))
			}
		}
	}
}

// TestDetectBandThresholdLimits: isolated dots differ from their circles by
// 255, so they are corners up to threshold 255; no pixel differs from
// another by 256 or more, so thresholds from 256 up find nothing, as the
// scalar scan did.
func TestDetectBandThresholdLimits(t *testing.T) {
	ims := fastTestImages()
	for _, name := range []string{"darkDots50x40", "brightDots50x40"} {
		im := ims[name]
		if got := (&Detector{Threshold: 255}).detectBand(im, 3, im.H-3, nil); len(got) == 0 {
			t.Fatalf("%s thr=255: no corners", name)
		}
		for _, thr := range []int{256, 257, 1000} {
			d := &Detector{Threshold: thr}
			if got := d.detectBand(im, 3, im.H-3, nil); len(got) != 0 {
				t.Fatalf("%s thr=%d: %d corners, want none", name, thr, len(got))
			}
			if want := scalarDetectBand(im, thr, 3, im.H-3, nil); len(want) != 0 {
				t.Fatalf("%s thr=%d: scalar scan found %d corners", name, thr, len(want))
			}
		}
	}
}

// TestDescribeMatchesClamped checks describe against clampedDescribe at
// every pixel of small images, every border row and column and all four
// corners included, where the patch is clamped, and at every third pixel
// of a benchmark-sized one.
func TestDescribeMatchesClamped(t *testing.T) {
	ims := fastTestImages()
	for _, name := range []string{"random61x37", "random13x9", "random7x7", "extremes14x14", "random376x240"} {
		im := ims[name]
		step := 1
		if im.W > 100 {
			step = 3
		}
		for y := 0; y < im.H; y += step {
			for x := 0; x < im.W; x += step {
				kp := Keypoint{X: float64(x), Y: float64(y)}
				if got, want := describe(im, x, y), clampedDescribe(im, kp); got != want {
					t.Fatalf("%s (%d,%d): describe %x, clamped %x", name, x, y, got, want)
				}
			}
		}
	}
	// A 1x1 image clamps every sample to its one pixel: no pair differs.
	if got := describe(Image{W: 1, H: 1, Pix: []uint8{9}}, 0, 0); got != (Descriptor{}) {
		t.Fatalf("1x1 image: descriptor %x, want zero", got)
	}
}
