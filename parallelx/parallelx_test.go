package parallelx

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withPool runs the body at a forced pool size, restoring the previous one.
func withPool(t *testing.T, n int, body func()) {
	t.Helper()
	prev := SetPoolSize(n)
	defer SetPoolSize(prev)
	body()
}

func TestSetPoolSizeClamps(t *testing.T) {
	prev := SetPoolSize(4)
	defer SetPoolSize(prev)
	if got := PoolSize(); got != 4 {
		t.Fatalf("PoolSize = %d, want 4", got)
	}
	SetPoolSize(0)
	if got := PoolSize(); got != 1 {
		t.Fatalf("PoolSize after SetPoolSize(0) = %d, want 1", got)
	}
	SetPoolSize(-3)
	if got := PoolSize(); got != 1 {
		t.Fatalf("PoolSize after SetPoolSize(-3) = %d, want 1", got)
	}
}

// TestMapIndexOrdered: results land in input order even when completion
// order is scrambled by per-item jitter.
func TestMapIndexOrdered(t *testing.T) {
	for _, pool := range []int{1, 2, 8, 32} {
		withPool(t, pool, func() {
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 100)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(100)) * time.Microsecond
			}
			got := MapIndex(len(delays), func(i int) int {
				time.Sleep(delays[i])
				return i * i
			})
			for i, v := range got {
				if v != i*i {
					t.Fatalf("pool=%d: out[%d] = %d, want %d", pool, i, v, i*i)
				}
			}
		})
	}
}

func TestMapIndexEachIndexOnce(t *testing.T) {
	withPool(t, 8, func() {
		var calls [512]atomic.Int64
		MapIndex(len(calls), func(i int) struct{} {
			calls[i].Add(1)
			return struct{}{}
		})
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("index %d evaluated %d times", i, n)
			}
		}
	})
}

func TestMapEmptyAndNil(t *testing.T) {
	if got := Map(nil, func(int) int { return 0 }); got != nil {
		t.Fatalf("Map(nil) = %v, want nil", got)
	}
	if got := MapIndex(0, func(int) int { return 0 }); got != nil {
		t.Fatalf("MapIndex(0) = %v, want nil", got)
	}
}

// TestMapMatchesSerial: parallel output is identical to the PoolSize=1 path.
func TestMapMatchesSerial(t *testing.T) {
	items := make([]float64, 1000)
	for i := range items {
		items[i] = float64(i) * 0.37
	}
	fn := func(x float64) float64 { return x*x - 3*x + 1 }
	var serial []float64
	withPool(t, 1, func() { serial = Map(items, fn) })
	for _, pool := range []int{2, 4, 16} {
		withPool(t, pool, func() {
			if got := Map(items, fn); !reflect.DeepEqual(got, serial) {
				t.Fatalf("pool=%d output differs from serial", pool)
			}
		})
	}
}

func TestFilterMapKeepsOrder(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	fn := func(i int) (int, bool) { return i * 10, i%3 != 0 }
	var serial []int
	withPool(t, 1, func() { serial = FilterMap(items, fn) })
	if len(serial) == 0 || serial[0] != 10 {
		t.Fatalf("unexpected serial head: %v", serial[:3])
	}
	for _, pool := range []int{2, 8} {
		withPool(t, pool, func() {
			if got := FilterMap(items, fn); !reflect.DeepEqual(got, serial) {
				t.Fatalf("pool=%d FilterMap differs from serial", pool)
			}
		})
	}
}

// TestForChunksFixedBoundaries: chunk boundaries depend only on (n, chunk),
// never on the pool size — the banded determinism the SLAM detector and the
// batch engine rely on.
func TestForChunksFixedBoundaries(t *testing.T) {
	type span struct{ lo, hi int }
	const n, chunk = 103, 16
	for _, pool := range []int{1, 2, 5, 32} {
		withPool(t, pool, func() {
			var got [7]span // 103/16 rounds up to 7 chunks
			var extra atomic.Int64
			ForChunks(n, chunk, func(ci, lo, hi int) {
				if ci >= len(got) {
					extra.Add(1)
					return
				}
				got[ci] = span{lo, hi}
			})
			if extra.Load() != 0 {
				t.Fatalf("pool=%d: %d chunks past the 7th", pool, extra.Load())
			}
			for ci, s := range got {
				if want := (span{ci * chunk, min(ci*chunk+chunk, n)}); s != want {
					t.Fatalf("pool=%d: chunk %d = %+v, want %+v", pool, ci, s, want)
				}
			}
		})
	}
}

// TestForChunksCoversAllOnce: every index lands in exactly one in-range,
// non-empty chunk, whatever the pool size and chunk width.
func TestForChunksCoversAllOnce(t *testing.T) {
	for _, pool := range []int{1, 3, 7, 64} {
		for _, chunk := range []int{1, 16, 200} {
			withPool(t, pool, func() {
				var hits [101]atomic.Int64
				ForChunks(len(hits), chunk, func(ci, lo, hi int) {
					if lo < 0 || hi > len(hits) || lo >= hi {
						t.Errorf("bad chunk %d [%d,%d)", ci, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if c := hits[i].Load(); c != 1 {
						t.Fatalf("pool=%d chunk=%d: index %d covered %d times", pool, chunk, i, c)
					}
				}
			})
		}
	}
}

func TestForChunksDegenerate(t *testing.T) {
	calls := 0
	ForChunks(0, 8, func(ci, lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatalf("ForChunks(0) ran %d chunks, want none", calls)
	}
	// chunk < 1 clamps to 1.
	var widths []int
	withPool(t, 1, func() { ForChunks(3, 0, func(ci, lo, hi int) { widths = append(widths, hi-lo) }) })
	if !reflect.DeepEqual(widths, []int{1, 1, 1}) {
		t.Fatalf("ForChunks(3, 0) chunk widths = %v, want three 1-wide chunks", widths)
	}
}

// TestNestedMap: a Map inside a Map must not deadlock (each call owns its
// workers; there is no shared queue).
func TestNestedMap(t *testing.T) {
	withPool(t, 4, func() {
		got := MapIndex(8, func(i int) int {
			inner := MapIndex(8, func(j int) int { return i*8 + j })
			s := 0
			for _, v := range inner {
				s += v
			}
			return s
		})
		for i, v := range got {
			want := 0
			for j := 0; j < 8; j++ {
				want += i*8 + j
			}
			if v != want {
				t.Fatalf("nested out[%d] = %d, want %d", i, v, want)
			}
		}
	})
}

// TestFreeList pins the free list's contract: Get on an empty list reports
// false, objects come back last in first out, Put on a full list lets the
// object go, and concurrent Gets never hand one object to two callers.
func TestFreeList(t *testing.T) {
	l := NewFreeList[*int](2)
	if v, ok := l.Get(); ok || v != nil {
		t.Fatalf("empty list gave %v, %v", v, ok)
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // over the cap: let go
	for _, want := range []*int{b, a} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %p, %v; want %p", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("the list kept an object past its cap")
	}

	const workers, rounds = 4, 1000
	l = NewFreeList[*int](workers)
	var owner [workers]atomic.Int32
	ids := make([]*int, workers)
	for i := range ids {
		ids[i] = new(int)
		*ids[i] = i
		l.Put(ids[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v, ok := l.Get()
				if !ok {
					continue
				}
				if !owner[*v].CompareAndSwap(0, 1) {
					t.Error("two callers hold the same object")
				}
				owner[*v].Store(0)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	for range ids {
		if _, ok := l.Get(); !ok {
			t.Fatal("concurrent use lost an object")
		}
	}
}
