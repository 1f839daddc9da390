package parallelx

import (
	"math"
	"testing"
)

// TestRecordingAcrossChunkEdges pins Append, At and All on both sides of
// every chunk edge, including an early break out of the iteration and the
// bounds check At keeps although a chunk holds room past Len.
func TestRecordingAcrossChunkEdges(t *testing.T) {
	var r Recording[int]
	const n = 3*ChunkLen + 7
	for i := range n {
		r.Append(i * i)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for _, i := range []int{0, ChunkLen - 1, ChunkLen, 2*ChunkLen - 1, 2 * ChunkLen, 3 * ChunkLen, n - 1} {
		if got := r.At(i); got != i*i {
			t.Errorf("At(%d) = %d, want %d", i, got, i*i)
		}
	}
	next := 0
	for i, v := range r.All() {
		if i != next || v != i*i {
			t.Fatalf("All yielded (%d, %d) at position %d", i, v, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("All yielded %d samples, want %d", next, n)
	}
	seen := 0
	for i := range r.All() {
		if seen++; i == ChunkLen {
			break
		}
	}
	if seen != ChunkLen+1 {
		t.Fatalf("a break at index %d stopped after %d samples", ChunkLen, seen)
	}
	for _, i := range []int{-1, n, 4 * ChunkLen} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) with Len %d did not panic", i, n)
				}
			}()
			r.At(i)
		}()
	}
}

// TestRecordingReleaseRecyclesChunks pins Release: the chunks go back to the
// element type's free list, the next recording takes them up again, and what
// it replays is bit-identical to what it appended, never a stale sample of
// the released recording. The list keeps at most maxFreeChunks.
func TestRecordingReleaseRecyclesChunks(t *testing.T) {
	l := freeListOf[*[ChunkLen]float64](maxFreeChunks)
	for _, ok := l.Get(); ok; _, ok = l.Get() { // start from an empty list
	}
	var r Recording[float64]
	for i := range 2*ChunkLen + 1 {
		r.Append(float64(i) * 1.5)
	}
	released := map[*[ChunkLen]float64]bool{}
	for _, c := range r.chunks {
		released[c] = true
	}
	r.Release()
	if r.Len() != 0 || len(r.chunks) != 0 {
		t.Fatalf("a released recording holds %d samples in %d chunks", r.Len(), len(r.chunks))
	}
	if got := len(l.free); got != 3 {
		t.Fatalf("Release returned %d chunks to the free list, want 3", got)
	}

	want := func(i int) float64 { return math.Nextafter(float64(i), -1) / 3 }
	const n = ChunkLen + 3
	for i := range n {
		r.Append(want(i))
	}
	for _, c := range r.chunks {
		if !released[c] {
			t.Error("the reused recording allocated a chunk while released ones were free")
		}
	}
	count := 0
	for i, v := range r.All() {
		if math.Float64bits(v) != math.Float64bits(want(i)) {
			t.Fatalf("sample %d replays %v, appended %v", i, v, want(i))
		}
		count++
	}
	if count != n || r.Len() != n {
		t.Fatalf("the reused recording replays %d samples (Len %d), appended %d", count, r.Len(), n)
	}
	r.Release()

	var big Recording[float64]
	for range (maxFreeChunks + 8) * ChunkLen {
		big.Append(1)
	}
	big.Release()
	if len(l.free) != maxFreeChunks {
		t.Fatalf("the free list keeps %d chunks, cap %d", len(l.free), maxFreeChunks)
	}
}
