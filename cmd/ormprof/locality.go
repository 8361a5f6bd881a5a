package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/locality"
	"ormprof/internal/report"
)

// localityCmd quantifies a workload's data reference locality (Chilimbi's
// measurement, related work [10]) at two granularities: hardware cache
// lines over raw addresses, and objects over the object-relative stream.
// The line histogram's miss-ratio curve predicts fully associative LRU
// cache behaviour exactly.
func localityCmd(args []string) error {
	fs := flag.NewFlagSet("locality", flag.ExitOnError)
	w, scale, seed, _, tf := workloadFlags(fs)
	line := fs.Uint("line", 64, "cache line size in bytes")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	ls := locality.NewLineSink(*line)
	_, perr := ev.Pass(ls)
	if err := deg.Check(perr); err != nil {
		return err
	}
	lineHist := ls.Histogram()
	tr, err := ev.Translate(uint64(*seed))
	if err := deg.Check(err); err != nil {
		return err
	}
	// A -mem-budget can take the object-relative stream away; the line
	// column still stands on its own pass.
	objects := fmt.Sprintf("object stream unavailable, degraded to %s", tr.Ladder.Rung())
	objCell := func(uint64) string { return "n/a" }
	if tr.OMC != nil {
		objHist := locality.ObjectHistogram(tr.Records)
		objects = fmt.Sprintf("%d object touches", objHist.Total)
		objCell = func(c uint64) string { return report.Pct(100 * objHist.MissRatio(c)) }
	}

	fmt.Printf("workload %s: reuse-distance analysis (%d line touches, %s)\n\n",
		ev.Name, lineHist.Total, objects)
	tbl := report.NewTable("LRU capacity", "Line miss ratio", "Object miss ratio")
	for _, c := range []uint64{8, 32, 128, 512, 2048, 8192} {
		tbl.AddRowf(c, report.Pct(100*lineHist.MissRatio(c)), objCell(c))
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	fmt.Println("\nline rows predict a fully associative LRU cache of that many lines")
	fmt.Println("exactly; object rows measure locality of the object-relative stream,")
	fmt.Println("independent of allocator placement.")
	return ev.Finish(os.Stdout, &deg, tr.Ladder)
}
