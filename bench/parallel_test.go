package bench

import (
	"testing"

	"dronedse/parallelx"
)

// renderAll regenerates the compute-heavy figure tables at the current pool
// size and returns their rendered text — the regression oracle: parallel
// output must be byte-identical to serial output.
func renderAll(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	out["fig9"] = RunFigure9().Table().Render()
	for _, wb := range []float64{100, 450, 800} {
		fg, err := RunFigure10(wb)
		if err != nil {
			t.Fatal(err)
		}
		out["fig10"] += fg.Table().Render()
	}
	out["fig15"] = RunFigure15(7).Table().Render()
	fg17, err := RunFigure17(3)
	if err != nil {
		t.Fatal(err)
	}
	out["fig17"] = fg17.Table().Render()
	twr, err := RunTWRStudy()
	if err != nil {
		t.Fatal(err)
	}
	out["twr"] = twr.Table().Render()
	pareto, err := RunParetoStudy()
	if err != nil {
		t.Fatal(err)
	}
	out["pareto"] = pareto.Table().Render()
	return out
}

// TestFigureTablesPoolInvariant: every parallelized figure generator renders
// byte-identically at pool sizes 1, 2, and 8.
func TestFigureTablesPoolInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("SLAM sequences are slow; skipping in -short")
	}
	var serial map[string]string
	func() {
		prev := parallelx.SetPoolSize(1)
		defer parallelx.SetPoolSize(prev)
		serial = renderAll(t)
	}()
	for name, text := range serial {
		if text == "" {
			t.Fatalf("serial %s rendered empty", name)
		}
	}
	for _, pool := range []int{2, 8} {
		func() {
			prev := parallelx.SetPoolSize(pool)
			defer parallelx.SetPoolSize(prev)
			got := renderAll(t)
			for name, text := range got {
				if text != serial[name] {
					t.Errorf("pool=%d: %s output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
						pool, name, text, serial[name])
				}
			}
		}()
	}
}
