package parallelx

import "iter"

// ChunkLen is the number of samples in one Recording chunk.
const ChunkLen = 256

// maxFreeChunks is the fixed cap on each element type's chunk free list:
// enough to keep a 128-lane campaign of 60 s flights, about four 10 Hz
// chunks each, warm.
const maxFreeChunks = 512

// Series is the read side of a Recording: an indexed sequence stored in
// fixed ChunkLen-sample chunks. A Series a caller is handed stays valid
// until its owner releases the Recording.
type Series[T any] struct {
	chunks []*[ChunkLen]T // ceil(n/ChunkLen) chunks, the last one partly filled
	n      int
}

// Len returns the number of samples.
func (s *Series[T]) Len() int { return s.n }

// At returns sample i, which must be in [0, Len).
func (s *Series[T]) At(i int) T {
	if uint(i) >= uint(s.n) {
		panic("parallelx: Series index out of range")
	}
	return s.chunks[i/ChunkLen][i%ChunkLen]
}

// All yields every sample with its index, in append order.
func (s *Series[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for i := range s.n {
			if !yield(i, s.chunks[i/ChunkLen][i%ChunkLen]) {
				return
			}
		}
	}
}

// Recording is an append-only Series whose memory follows its length: it
// borrows a chunk when the last one fills and returns them all on Release,
// through one GC-stable FreeList per element type, so a warm list makes
// Append allocation-free. A list retains at most 512 × ChunkLen × sizeof(T)
// bytes: 3 MiB of 24 B trajectory samples plus 11 MiB of 88 B flight-log
// rows, 14 MiB for the two recordings every flight keeps. T must hold no pointers, so a
// recycled chunk's stale samples pin nothing. The zero value is empty.
type Recording[T any] struct {
	Series[T]
}

// Append adds v at index Len.
func (r *Recording[T]) Append(v T) {
	k := r.n % ChunkLen
	if k == 0 {
		c, ok := freeListOf[*[ChunkLen]T](maxFreeChunks).Get()
		if !ok {
			c = new([ChunkLen]T)
		}
		if r.chunks == nil { // room for 8 chunks: the next 7 edges never allocate
			r.chunks = make([]*[ChunkLen]T, 0, 8)
		}
		r.chunks = append(r.chunks, c)
	}
	r.chunks[len(r.chunks)-1][k] = v
	r.n++
}

// Release empties the recording and returns its chunks to the free list,
// where other recordings take them up: a Series read through a pointer
// kept past Release sees whatever is recorded next.
func (r *Recording[T]) Release() {
	l := freeListOf[*[ChunkLen]T](maxFreeChunks)
	for _, c := range r.chunks {
		l.Put(c)
	}
	clear(r.chunks)
	r.chunks, r.n = r.chunks[:0], 0
}
