package bench

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dronedse/trace"
)

// TestFigure16Golden pins RunFigure16(3) to the float bit: the whole-drone
// oscilloscope's average and peak and the USB meter's per-phase means, each
// as the hex of its IEEE-754 bits (the rendered table rounds to two
// decimals, and TestFigure16 checks ranges only). Regenerate deliberately
// with
//
//	GOLDEN_UPDATE=1 go test ./bench/ -run TestFigure16Golden
func TestFigure16Golden(t *testing.T) {
	const path = "testdata/figure16_golden.txt"
	fg, err := RunFigure16(3)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(key string, v float64) {
		fmt.Fprintf(&b, "%s %016x\n", key, math.Float64bits(v))
	}
	line("drone_avg_w", fg.DroneAvgW)
	line("drone_peak_w", fg.DronePeakW)
	means := trace.PhaseMeans(fg.RPiTrace, fg.RPiPhases)
	for _, ph := range fg.RPiPhases {
		line("rpi_mean_w:"+ph.Name, means[ph.Name])
	}
	got := b.String()

	if os.Getenv("GOLDEN_UPDATE") != "" {
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
		t.Errorf("RunFigure16(3) pinned bits:\n%s\ngolden:\n%s", got, want)
	}
}
