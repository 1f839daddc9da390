package dataset_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dronedse/dataset"
	"dronedse/roofline"
)

// goldenSpecs are every sequence the figures and the benchmark render: the
// 11 EuRoC specs and the loop-closing orbit.
func goldenSpecs() []dataset.Spec {
	return append(dataset.EuRoCSpecs(), roofline.LoopOrbitSpec())
}

// digest hashes everything a sequence hands to SLAM and to the error
// metrics: the landmark field, and per frame its time, every image byte,
// every depth bit and the ground-truth pose bits.
func digest(seq *dataset.Sequence) string {
	h := sha256.New()
	var buf [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, lw := range seq.LandmarksW {
		f64(lw.X)
		f64(lw.Y)
		f64(lw.Z)
	}
	for i := range seq.Len() {
		f := seq.Frame(i)
		f64(f.TimeS)
		h.Write(f.Image)
		for _, d := range f.Depth {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(d))
			h.Write(buf[:4])
		}
		for _, v := range []float64{f.TruePos.X, f.TruePos.Y, f.TruePos.Z,
			f.TrueAtt.W, f.TrueAtt.X, f.TrueAtt.Y, f.TrueAtt.Z} {
			f64(v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateGolden pins every rendered sequence to the bit: a SHA-256 of
// each spec's landmarks, images, depth maps and ground truth. Regenerate
// deliberately with
//
//	GOLDEN_UPDATE=1 go test ./dataset/ -run TestGenerateGolden
func TestGenerateGolden(t *testing.T) {
	const path = "testdata/generate_golden.txt"
	specs := goldenSpecs()
	lines := make([]string, len(specs))
	t.Run("render", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				seq, err := dataset.Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = fmt.Sprintf("%s frames=%d sha256=%s\n", spec.Name, seq.Len(), digest(seq))
			})
		}
	})
	got := strings.Join(lines, "")

	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote " + path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendered sequences drifted:\n%s\ngolden:\n%s", got, want)
	}
}

// BenchmarkGenerate renders MH01, the sequence every SLAM benchmark and the
// roofline reference start from.
func BenchmarkGenerate(b *testing.B) {
	spec := dataset.EuRoCSpecs()[0]
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dataset.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
