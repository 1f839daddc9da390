package microarch

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestFigure15Golden pins RunFigure15(7, 5000), the isolation ladder
// included, to the float bit: every Metrics field of every configuration,
// floats as the hex of their IEEE-754 bits (the rendered tables round, and the other tests
// check directions only). Regenerate deliberately with
//
//	GOLDEN_UPDATE=1 go test ./microarch/ -run TestFigure15Golden
func TestFigure15Golden(t *testing.T) {
	const path = "testdata/figure15_golden.txt"
	var b strings.Builder
	line := func(key string, m Metrics) {
		fmt.Fprintf(&b, "%s ipc=%016x llc=%016x br=%016x tlb_misses=%d tlb=%016x instr=%d\n",
			key, math.Float64bits(m.IPC), math.Float64bits(m.LLCMissRate),
			math.Float64bits(m.BranchMissRate), m.TLBMisses,
			math.Float64bits(m.TLBMissRate), m.Instructions)
	}
	fig := RunFigure15(7, 5000)
	line("fig15.autopilot", fig.Autopilot)
	line("fig15.slam", fig.SLAM)
	line("fig15.autopilot_with_slam", fig.AutopilotWithSLAM)
	line("isolation.solo", fig.Autopilot)
	line("isolation.shared_core", fig.AutopilotWithSLAM)
	line("isolation.dedicated_core", fig.DedicatedCore)
	got := b.String()

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
		t.Errorf("Figure 15 pinned bits:\n%s\ngolden:\n%s", got, want)
	}
}
