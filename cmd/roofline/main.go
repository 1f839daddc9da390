// Command roofline runs a representative workload through the full stack —
// a EuRoC-style SLAM sequence, a loop-closing orbit sequence, and a box
// mission flight — collects every kernel's work ledger (slam.Stats,
// estimation.EKFStats, control.CtrlStats), and places the kernels on each
// Table 5 platform's roofline: arithmetic intensity against the compute and
// memory-bandwidth ceilings. The ledgers are deterministic functions of the
// workload inputs, so every number printed here is bit-identical at any
// -procs value — the property the golden test pins at pools 1, 2 and 8.
//
// Usage:
//
//	roofline              # table + RPi ASCII roofline figure
//	roofline -procs 8     # identical output, pipelined detection
//	roofline -fig TX2     # draw another platform's figure
//	roofline -nofig       # table only (the golden-tested surface)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"dronedse/parallelx"
	"dronedse/roofline"
)

// run builds the workload ledgers and writes the report, returning it so
// the tests can assert on the ledgers behind the exact user-facing output.
func run(w io.Writer, figPlatform string) (roofline.Report, error) {
	ref, err := roofline.RunReference()
	if err != nil {
		return roofline.Report{}, err
	}
	for _, res := range ref.Sequences {
		fmt.Fprintf(w, "slam %-6s frames %3d  kfs %3d  loops %d  ate %.3f m\n",
			res.Name, res.Frames, res.Stats.Keyframes, res.Stats.LoopClosures, res.ATE)
	}
	fres := ref.Flight
	fmt.Fprintf(w, "flight %.1f s  ekf predicts %d / updates %d  ctrl updates %d\n\n",
		fres.FlightTimeS, fres.EKFStats.Predicts, fres.EKFStats.Updates,
		fres.CtrlStats.RateUpdates)
	rep := ref.Report
	fmt.Fprint(w, rep.Table())

	if figPlatform != "" {
		idx := -1
		for i, c := range rep.Ceilings {
			if c.Platform == figPlatform {
				idx = i
			}
		}
		if idx < 0 {
			return rep, fmt.Errorf("unknown platform %q", figPlatform)
		}
		fmt.Fprintf(w, "\n%s", rep.Figure(idx, 72, 18))
	}
	return rep, nil
}

func main() {
	procs := flag.Int("procs", runtime.NumCPU(), "worker pool size (1 = serial)")
	fig := flag.String("fig", "RPi", "platform to draw the ASCII roofline for")
	nofig := flag.Bool("nofig", false, "suppress the ASCII figure")
	flag.Parse()
	parallelx.SetPoolSize(*procs)

	name := *fig
	if *nofig {
		name = ""
	}
	if _, err := run(os.Stdout, name); err != nil {
		fmt.Fprintln(os.Stderr, "roofline:", err)
		os.Exit(1)
	}
}
