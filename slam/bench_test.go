package slam

import (
	"fmt"
	"testing"

	"dronedse/dataset"
	"dronedse/parallelx"
)

// benchSeq generates the standard benchmark sequence (MH01).
func benchSeq(b *testing.B) *dataset.Sequence {
	b.Helper()
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		b.Fatal(err)
	}
	return seq
}

func benchPools(b *testing.B, fn func(b *testing.B)) {
	for _, pool := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("p%d", pool), func(b *testing.B) {
			prev := parallelx.SetPoolSize(pool)
			defer parallelx.SetPoolSize(prev)
			fn(b)
		})
	}
}

func BenchmarkDetect(b *testing.B) {
	seq := benchSeq(b)
	h := NewBenchHarness(seq, 11)
	benchPools(b, func(b *testing.B) {
		h.Detect() // warm the detector scratch at this pool size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Detect()
		}
	})
}

func BenchmarkMatchByProjection(b *testing.B) {
	seq := benchSeq(b)
	h := NewBenchHarness(seq, 30)
	h.MatchByProjection() // warm the grid scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchByProjection()
	}
}

func BenchmarkBundleAdjustLocal(b *testing.B) {
	seq := benchSeq(b)
	h := NewBenchHarness(seq, 60)
	benchPools(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.LocalBA()
		}
	})
}

func BenchmarkRunSequence(b *testing.B) {
	seq := benchSeq(b)
	benchPools(b, func(b *testing.B) {
		RunSequence(seq) // stock the free list with a warm sequence arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunSequence(seq)
		}
	})
}
