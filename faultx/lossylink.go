package faultx

import (
	"math/rand"
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
// reproducible fuzz corpus for the MAVLink parser and the ground station.
//
// The zero-probability link is transparent: bytes pass through unchanged.
type LossyLink struct {
	// Per-chunk probabilities in [0, 1].
	DropProb    float64
	CorruptProb float64
	DupProb     float64
	TruncProb   float64
	ReorderProb float64

	Stats LinkStats

	rng  *rand.Rand
	held []byte
}

// NewLossyLink returns a link whose damage pattern is driven by seed.
// Configure the probabilities on the returned value.
func NewLossyLink(seed int64) *LossyLink {
	return &LossyLink{rng: rand.New(rand.NewSource(seed))}
}

// Transmit passes one chunk through the link and returns what arrives on
// the far side (possibly nil). The input slice is never aliased.
func (l *LossyLink) Transmit(chunk []byte) []byte {
	l.Stats.Chunks++
	l.Stats.BytesIn += len(chunk)
	if len(chunk) == 0 {
		return l.deliver(nil)
	}
	if l.roll(l.DropProb) {
		l.Stats.Dropped++
		return l.deliver(nil)
	}
	out := append([]byte(nil), chunk...)
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
	if l.roll(l.ReorderProb) && l.held == nil {
		// Hold this chunk back; it rides out behind the next one.
		l.Stats.Reordered++
		l.held = out
		return nil
	}
	return l.deliver(out)
}

// Flush returns any chunk still held for reordering (end of stream).
func (l *LossyLink) Flush() []byte {
	out := l.takeHeld()
	l.Stats.BytesOut += len(out)
	return out
}

// deliver appends the held chunk (if any) after out and accounts the bytes.
func (l *LossyLink) deliver(out []byte) []byte {
	out = append(out, l.takeHeld()...)
	l.Stats.BytesOut += len(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

func (l *LossyLink) takeHeld() []byte {
	h := l.held
	l.held = nil
	return h
}

// roll draws one decision; zero-probability faults never touch the rng, so
// a clean link stays byte-transparent without perturbing the seed stream.
func (l *LossyLink) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return l.rng.Float64() < p
}
