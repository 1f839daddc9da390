// Command figures regenerates the data behind every table and figure in the
// paper's evaluation.
//
// Usage:
//
//	figures -fig all            # everything (slow: runs the full SLAM suite)
//	figures -fig 10             # Figure 10 (all three wheelbases)
//	figures -fig table5 -seqs 4 # Table 5 from a truncated SLAM suite
//
// Figure ids: table2a table2b 7 8a 8b 9 10 11 14 15 16 17 table4 table5
// innerloop — plus the extension studies: twr sensors gust offload eslam
// pareto isolation prefetch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"dronedse/bench"
	"dronedse/components"
	"dronedse/core"
	"dronedse/parallelx"
)

func main() {
	fig := flag.String("fig", "all", "figure/table id to regenerate (see doc comment)")
	seed := flag.Int64("seed", components.DefaultSeed, "catalog/workload seed")
	seqs := flag.Int("seqs", 0, "limit the SLAM suite to the first N sequences (0 = all 11)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory (the artifact's raw-data export)")
	procs := flag.Int("procs", runtime.NumCPU(), "worker pool size for sweeps and SLAM sequences (1 = serial)")
	flag.Parse()
	parallelx.SetPoolSize(*procs)

	if err := run(*fig, *seed, *seqs, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string, seed int64, seqs int, csvDir string) error {
	p := core.DefaultParams()
	emit := func(t bench.Table) {
		fmt.Println(t.Render())
		if csvDir == "" {
			return
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures: csv:", err)
			return
		}
		name := slug(t.Title) + ".csv"
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(t.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "figures: csv:", err)
		}
	}

	// Figure 15 and the isolation ladder read one simulation of their four
	// configurations, run the first time either is wanted.
	figure15 := sync.OnceValue(func() bench.Figure15 { return bench.RunFigure15(seed) })

	// want reports whether -fig selects id, and records id so that a -fig
	// that selects nothing can be answered with the ids that exist.
	var known []string
	selected := false
	want := func(id string) bool {
		known = append(known, id)
		ok := fig == "all" || fig == id
		selected = selected || ok
		return ok
	}

	if want("table2a") {
		emit(bench.Table2aRender())
	}
	if want("table2b") {
		emit(bench.RunTable2b().Table())
	}
	if want("innerloop") {
		emit(bench.RunInnerLoopAblation().Table())
	}
	if want("7") {
		fg, err := bench.RunFigure7(seed)
		if err != nil {
			return err
		}
		emit(fg.Table())
	}
	if want("8a") || want("8b") || want("8") {
		fg, err := bench.RunFigure8(seed)
		if err != nil {
			return err
		}
		emit(fg.Table())
	}
	if want("9") {
		emit(bench.RunFigure9(p).Table())
	}
	if want("10") {
		for _, wb := range []float64{100, 450, 800} {
			fg, err := bench.RunFigure10(wb, p)
			if err != nil {
				return err
			}
			emit(fg.Table())
		}
	}
	if want("11") {
		emit(bench.RunFigure11().Table())
	}
	if want("14") {
		emit(bench.Figure14())
	}
	if want("table4") {
		emit(bench.Table4Render())
	}
	if want("15") {
		emit(figure15().Table())
	}
	if want("16") {
		fg, err := bench.RunFigure16(seed)
		if err != nil {
			return err
		}
		emit(fg.Table())
	}
	if want("twr") {
		s, err := bench.RunTWRStudy(p)
		if err != nil {
			return err
		}
		emit(s.Table())
	}
	if want("sensors") {
		s, err := bench.RunSensorStudy(p)
		if err != nil {
			return err
		}
		emit(s.Table())
	}
	if want("gust") {
		emit(bench.RunGustStudy(seed).Table())
	}
	if want("offload") {
		s, err := bench.RunOffloadStudy()
		if err != nil {
			return err
		}
		emit(s.Table())
	}
	if want("eslam") {
		s, err := bench.RunESLAMStudy(seqs)
		if err != nil {
			return err
		}
		emit(s.Table())
	}
	if want("pareto") {
		s, err := bench.RunParetoStudy(p)
		if err != nil {
			return err
		}
		emit(s.Table())
	}
	if want("isolation") {
		emit(figure15().IsolationTable())
	}
	if want("prefetch") {
		emit(bench.RunPrefetchStudy(seed).Table())
	}
	if want("17") || want("table5") {
		fg, err := bench.RunFigure17(seqs)
		if err != nil {
			return err
		}
		if want("17") {
			emit(fg.Table())
		}
		if want("table5") {
			t5, err := bench.RunTable5(fg.Stats(), p)
			if err != nil {
				return err
			}
			emit(t5.Table())
		}
	}
	if !selected {
		return fmt.Errorf("unknown figure id %q (known: all %s)", fig, strings.Join(known, " "))
	}
	return nil
}

// slug derives a filesystem-safe name from a table title.
func slug(title string) string {
	if i := strings.IndexByte(title, ':'); i > 0 {
		title = title[:i]
	}
	title = strings.ToLower(strings.TrimSpace(title))
	var b strings.Builder
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
	}
	return b.String()
}
