package power

import (
	"math"
	"math/rand"
	"testing"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSocPow06MatchesPow pins socPow06 to math.Pow(soc, 0.6) bit for bit:
// a dense uniform sweep of (0, 1], a log-uniform sweep down to the guard,
// and the edges on both sides of it.
func TestSocPow06MatchesPow(t *testing.T) {
	check := func(soc float64) {
		t.Helper()
		if got, want := socPow06(soc), math.Pow(soc, 0.6); !sameBits(got, want) {
			t.Fatalf("socPow06(%v) = %v, math.Pow = %v", soc, got, want)
		}
	}
	const n = 1 << 20
	for i := 0; i <= n; i++ {
		check(float64(i) / n)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		check(math.Ldexp(0.5+rng.Float64()/2, -rng.Intn(1000)))
	}
	guard := 0x1p-1000
	for _, soc := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
		guard, math.Nextafter(guard, 0), math.Nextafter(guard, 1),
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, -0.25,
		math.Inf(1), math.NaN(),
	} {
		if got, want := socPow06(soc), math.Pow(soc, 0.6); !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("socPow06(%v) = %v, math.Pow = %v", soc, got, want)
		}
	}
}

// TestPeukertPowMatchesPow pins peukertPow to math.Pow(ratio, K-1) bit for
// bit over a sweep of discharge ratios and Peukert constants, including
// K = 1, 1.5 and 2 (exponents 0, 0.5 and 1, which fall back to math.Pow)
// and ratios at or below 1 and not finite.
func TestPeukertPowMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ks := []float64{1, 1.01, 1.03, 1.05, 1.1, 1.25, 1.4999999999999998, 1.5, 1.7, 2}
	ratios := []float64{
		math.Inf(-1), -3, -0.0, 0, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
		1.5, 2, 37, 1e10, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for i := 0; i < 1<<18; i++ {
		ratios = append(ratios, 1+rng.ExpFloat64()*10)
	}
	for _, k := range ks {
		y := k - 1
		for _, r := range ratios {
			got, want := peukertPow(r, y), math.Pow(r, y)
			if !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("peukertPow(%v, %v) = %v, math.Pow = %v", r, y, got, want)
			}
		}
	}
}

// BenchmarkPackDrawPower measures one 1 kHz battery step at a hover-class
// draw, recharging periodically so the pack stays in its normal range.
func BenchmarkPackDrawPower(b *testing.B) {
	p, err := NewPack(4, 5000, 25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			p.Reset()
		}
		p.DrawPower(300, 0.001)
	}
}
