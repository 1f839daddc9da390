package faultx

import (
	"math/rand"

	"dronedse/mathx"
)

// LinkStats counts what a LossyLink did to the byte stream.
type LinkStats struct {
	Chunks     int
	Dropped    int
	Corrupted  int
	Duplicated int
	Truncated  int
	Reordered  int
	BytesIn    int
	BytesOut   int
}

// LossyLink mangles a byte stream the way a marginal telemetry radio does:
// whole-chunk drops, bit corruption, duplication, tail truncation, and
// chunk reordering. All decisions come from a seeded rng, so a given seed
// produces the same damage pattern every run — the corrupted stream is a
// reproducible fuzz corpus for the MAVLink parser.
//
// The zero-probability link is transparent: bytes pass through unchanged,
// and the rng is never seeded.
type LossyLink struct {
	// Per-chunk probabilities in [0, 1].
	DropProb    float64
	CorruptProb float64
	DupProb     float64
	TruncProb   float64
	ReorderProb float64

	Stats LinkStats

	seed int64
	rng  *rand.Rand // seeded by the first roll
	out  []byte     // Transmit's and Flush's result, reused
	held []byte     // the chunk held back for reordering, if non-empty
}

// NewLossyLink returns a link whose damage pattern is driven by seed.
// Configure the probabilities on the returned value.
func NewLossyLink(seed int64) *LossyLink {
	return &LossyLink{seed: seed}
}

// Transmit passes one chunk through the link and returns what arrives on
// the far side (possibly nil). Transmit and Flush return link-owned bytes,
// valid until the next call; Transmit copies its input first, so the input
// may be such a result.
func (l *LossyLink) Transmit(chunk []byte) []byte {
	l.Stats.Chunks++
	l.Stats.BytesIn += len(chunk)
	if len(chunk) == 0 {
		return l.deliver(l.out[:0])
	}
	if l.roll(l.DropProb) {
		l.Stats.Dropped++
		return l.deliver(l.out[:0])
	}
	out := append(l.out[:0], chunk...)
	if l.roll(l.CorruptProb) {
		l.Stats.Corrupted++
		n := 1 + l.rng.Intn(3)
		for i := 0; i < n; i++ {
			out[l.rng.Intn(len(out))] ^= byte(1 + l.rng.Intn(255))
		}
	}
	if l.roll(l.TruncProb) && len(out) > 1 {
		l.Stats.Truncated++
		out = out[:1+l.rng.Intn(len(out)-1)]
	}
	if l.roll(l.DupProb) {
		l.Stats.Duplicated++
		out = append(out, out...)
	}
	if l.roll(l.ReorderProb) && len(l.held) == 0 {
		// Hold this chunk back; it rides out behind the next one.
		l.Stats.Reordered++
		l.held, l.out = out, l.held[:0]
		return nil
	}
	return l.deliver(out)
}

// Flush returns any chunk still held for reordering (end of stream).
func (l *LossyLink) Flush() []byte {
	return l.deliver(l.out[:0])
}

// deliver appends the held chunk (if any) after out and accounts the bytes.
func (l *LossyLink) deliver(out []byte) []byte {
	out = append(out, l.held...)
	l.held = l.held[:0]
	l.out = out
	l.Stats.BytesOut += len(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// roll draws one decision; zero-probability faults never touch the rng, so
// a clean link stays byte-transparent without perturbing the seed stream.
func (l *LossyLink) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if l.rng == nil {
		l.rng = rand.New(mathx.NewSource(l.seed))
	}
	return l.rng.Float64() < p
}
