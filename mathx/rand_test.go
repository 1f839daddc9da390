package mathx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pinnedSeeds are the seeds whose normalisation takes a distinct path in
// Seed: zero (replaced by 89482311), the signs, the modulus 2³¹−1 and its
// neighbours and multiples, and the int64 extremes.
var pinnedSeeds = []int64{
	0, 1, -1, 42, 1<<31 - 2, 1<<31 - 1, 1 << 31, 2 * (1<<31 - 1),
	math.MinInt64, math.MaxInt64, 89482311,
}

// testSeeds returns pinnedSeeds plus 1,000 seeds drawn across the int64 range.
func testSeeds() []int64 {
	r := rand.New(rand.NewSource(20261019))
	seeds := slices.Clone(pinnedSeeds)
	for range 1000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// intnBounds covers Int31n's power-of-two mask, its rejection loop (2³⁰+1
// rejects about half the draws), the int32 limit, and Int63n (2⁴⁰).
var intnBounds = []int{1, 6, 8, 14, 215, 1<<30 + 1, 1<<31 - 1, 1 << 40}

// assertSameStream draws every kind of value from got and want in lock step.
// 3·607 draws of each word-level method wrap the 607-word register three
// times, so every state word is read and rewritten.
func assertSameStream(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := range 3 * rngLen {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	for i := range 3 * rngLen {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	for _, n := range intnBounds {
		for i := range 64 {
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, g, w)
			}
		}
	}
	for i := range 64 {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 draw %d = %v, want %v", seed, i, g, w)
		}
	}
	if g, w := got.Perm(50), want.Perm(50); !slices.Equal(g, w) {
		t.Fatalf("seed %d: Perm(50) = %v, want %v", seed, g, w)
	}
}

// TestSourceMatchesStdlib pins the port to math/rand draw for draw, through
// every distribution method the repository uses.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range testSeeds() {
		assertSameStream(t, seed, rand.New(NewSource(seed)), rand.New(rand.NewSource(seed)))
	}
}

// TestReseedMatchesStdlib checks that reseeding a used stream in place, the
// way flight stacks re-initialise pooled sensors, restarts it exactly where
// a fresh math/rand stream at the new seed starts, and that Reseed(nil, …)
// builds one.
func TestReseedMatchesStdlib(t *testing.T) {
	r := Reseed(nil, 7)
	assertSameStream(t, 7, r, rand.New(rand.NewSource(7)))
	for _, seed := range pinnedSeeds {
		r.Intn(1000) // leave the register mid-cycle
		if got := Reseed(r, seed); got != r {
			t.Fatal("Reseed of a live generator returned a new one")
		}
		assertSameStream(t, seed, r, rand.New(rand.NewSource(seed)))
	}
}

// TestFillInt31nMatchesStdlib pins the fill to (*rand.Rand).Int31n over the
// same bounds: the same values and the same number of draws consumed, so the
// streams stay in step afterwards. Every bound in [1, 300) is covered, with
// the powers of two, the bounds whose rejection loop runs often, and 200
// random ones.
func TestFillInt31nMatchesStdlib(t *testing.T) {
	bounds := []int32{1 << 30, 1<<30 + 1, 1<<31 - 1}
	for n := int32(1); n < 300; n++ {
		bounds = append(bounds, n)
	}
	r := rand.New(rand.NewSource(3))
	for range 200 {
		bounds = append(bounds, r.Int31n(1<<31-1)+1)
	}
	for _, seed := range pinnedSeeds {
		src := NewSource(seed)
		want := rand.New(rand.NewSource(seed))
		var got [100]int32
		for _, n := range bounds {
			FillInt31n(got[:], 0, n, src)
			for i, g := range got {
				if w := want.Int31n(n); g != w {
					t.Fatalf("seed %d: Int31n(%d) draw %d = %d, want %d", seed, n, i, g, w)
				}
			}
		}
		// The byte form with an offset, as images use it.
		var img [1000]uint8
		for _, n := range []int32{6, 8, 10, 14, 200} {
			FillInt31n(img[:], 20, n, src)
			for i, g := range img {
				if w := 20 + want.Int31n(n); int32(g) != w {
					t.Fatalf("seed %d: 20+Int31n(%d) byte %d = %d, want %d", seed, n, i, g, w)
				}
			}
		}
		if g, w := src.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: streams out of step after the fills: %d, want %d", seed, g, w)
		}
	}
}

func TestFillInt31nRejectsNonPositive(t *testing.T) {
	for _, n := range []int32{0, -1, math.MinInt32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillInt31n(n=%d) did not panic", n)
				}
			}()
			FillInt31n(make([]int32, 1), 0, n, NewSource(1))
		}()
	}
}

// schrage is math/rand's seedrand: x·a mod (2³¹−1) by Schrage's method, for
// a = 48271 (q = ⌊m/a⌋, r = m mod a).
func schrage(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += m31
	}
	return x
}

// TestMulMod31MatchesSchrage checks the division-free fold against Schrage's
// method on a dense sample of [1, 2³¹−2] plus its edges and the points where
// Schrage's quotient steps, and the three-step multiplier against three
// Schrage steps.
func TestMulMod31MatchesSchrage(t *testing.T) {
	xs := []int32{1, 2, 3, m31 - 2, m31 - 1, 44487, 44488, 44489, 1 << 30, 1<<30 + 1}
	for x := int32(1); x < m31-1009; x += 1009 {
		xs = append(xs, x)
	}
	for k := int32(1); k < m31/44488; k += 97 {
		xs = append(xs, k*44488-1, k*44488)
	}
	for _, x := range xs {
		want := schrage(x)
		if got := mulMod31(seedMul, uint64(x)); got != uint64(want) {
			t.Fatalf("48271·%d mod m31 = %d, want %d", x, got, want)
		}
		want = schrage(schrage(want))
		if got := mulMod31(seedMul3, uint64(x)); got != uint64(want) {
			t.Fatalf("48271³·%d mod m31 = %d, want %d", x, got, want)
		}
	}
}
