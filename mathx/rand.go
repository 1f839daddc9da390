package mathx

import "math/rand"

// Reseed returns r restarted from seed, or a new generator at seed when r is
// nil. Either way the stream that follows is bit-identical to that of
// rand.New(rand.NewSource(seed)); reseeding in place only skips allocating
// the source's ~5 KiB of state.
func Reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}
