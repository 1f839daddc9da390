package mathx

import (
	"math/bits"
	"math/rand"
)

// Reseed returns r restarted from seed, or a new generator at seed when r is
// nil. Either way the stream that follows is bit-identical to that of
// rand.New(NewSource(seed)); reseeding in place only skips allocating the
// source's ~5 KiB of state.
func Reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// FillInt31n sets dst[i] to base plus the i-th of len(dst) successive draws
// from [0, n), the values that len(dst) calls of (*rand.Rand).Int31n(n) on a
// generator built on s would return, consuming s exactly as they would. It
// panics, as Int31n does, when n <= 0.
//
// Int31n recomputes its rejection bound and divides twice on every call;
// here the bound is computed once, and the final v % n is a multiply-high by
// a reciprocal computed once (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019: with c = ⌊(2⁶⁴−1)/n⌋+1, v mod n =
// ⌊((c·v mod 2⁶⁴)·n)/2⁶⁴⌋ for all 32-bit v and n, n = 1 included since c
// wraps to 0). The register's indices stay in locals for the whole fill.
// T is uint8 for image rows; int32 holds a draw below any n.
func FillInt31n[T uint8 | int32](dst []T, base T, n int32, s *Source) {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	u := uint32(n)
	tap, feed := s.tap, s.feed
	var x uint64
	if u&(u-1) == 0 { // n is a power of two: mask
		for i := range dst {
			x, tap, feed = s.next(tap, feed)
			dst[i] = base + T(uint32(x&rngMask>>32)&(u-1)) // Int31() & (n-1)
		}
	} else {
		max := uint32(1<<31 - 1 - (1<<31)%u)
		c := ^uint64(0)/uint64(u) + 1
		for i := range dst {
			x, tap, feed = s.next(tap, feed)
			for uint32(x&rngMask>>32) > max { // Int31() > max: draw again
				x, tap, feed = s.next(tap, feed)
			}
			hi, _ := bits.Mul64(c*(x&rngMask>>32), uint64(u))
			dst[i] = base + T(hi)
		}
	}
	s.tap, s.feed = tap, feed
}
