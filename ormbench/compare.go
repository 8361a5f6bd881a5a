package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two sets of runs — each file holds the
// standard output of one or more runs — and prints, per workload and
// end-to-end metric, both sides' medians and quartiles, the share of
// pairs the change won and a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ormbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ormbench compare [-bench BENCHMARK.json] BEFORE AFTER")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *specPath, err)
		return 1
	}
	before, tracedBefore, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	after, tracedAfter, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	var workloads, overhead []string
	for w := range before {
		if _, ok := after[w]; ok {
			workloads = append(workloads, w)
			if tracedAfter[w] && !tracedBefore[w] {
				overhead = append(overhead, w)
			}
		}
	}
	sort.Strings(workloads)
	sort.Strings(overhead)
	if len(workloads) == 0 {
		fmt.Fprintln(stderr, "compare: no workload has runs on both sides")
		return 1
	}
	if len(overhead) > 0 {
		fmt.Fprintf(stdout, "tracing overhead: AFTER holds only traced runs of %s\n", strings.Join(overhead, ", "))
	}
	fmt.Fprintf(stdout, "%-15s %-17s %5s %26s %26s %8s %6s  %s\n",
		"workload", "metric", "runs", "before p50 [q1,q3]", "after p50 [q1,q3]", "delta", "won", "verdict")
	for _, w := range workloads {
		a, b := pairUp(before[w], after[w])
		for _, m := range spec.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareMetric(av, bv, m.Better == "higher", m.Bound)
			fmt.Fprintf(stdout, "%-15s %-17s %2d/%-2d %26s %26s %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, len(av), len(bv), medQ(av), medQ(bv), 100*c.delta, 100*c.won, c.verdict)
		}
	}
	return 0
}

func medQ(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", median(xs), q1, q3)
}

// loadRecords reads the full-record lines in path, by workload. A
// workload's untraced runs are used when the file holds any; otherwise
// its traced runs are, with their end-to-end numbers standing in for
// their metrics, and traced names the workload.
func loadRecords(path string) (runs map[string][]*record, traced map[string]bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	untracedRuns := make(map[string][]*record)
	tracedRuns := make(map[string][]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r record
		if json.Unmarshal(line, &r) != nil || r.Workload == "" {
			continue
		}
		if r.Traced {
			r.Metrics = r.EndToEnd
			tracedRuns[r.Workload] = append(tracedRuns[r.Workload], &r)
		} else {
			untracedRuns[r.Workload] = append(untracedRuns[r.Workload], &r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	traced = make(map[string]bool)
	for w, rs := range tracedRuns {
		if _, ok := untracedRuns[w]; !ok {
			untracedRuns[w] = rs
			traced[w] = true
		}
	}
	return untracedRuns, traced, nil
}

// pairUp orders both sides' runs so index i of each is a pair: by seed
// when both sides ran the same seeds, otherwise in file order. Unmatched
// runs are dropped from the longer side.
func pairUp(a, b []*record) ([]*record, []*record) {
	bySeed := func(rs []*record) map[int64]*record {
		m := make(map[int64]*record)
		for _, r := range rs {
			m[r.Meta.Seed] = r
		}
		return m
	}
	sa, sb := bySeed(a), bySeed(b)
	if len(sa) == len(a) && len(sb) == len(b) {
		var seeds []int64
		for s := range sa {
			if _, ok := sb[s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == len(a) && len(seeds) == len(b) {
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			pa, pb := make([]*record, len(seeds)), make([]*record, len(seeds))
			for i, s := range seeds {
				pa[i], pb[i] = sa[s], sb[s]
			}
			return pa, pb
		}
	}
	n := min(len(a), len(b))
	return a[:n], b[:n]
}

func values(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one metric's verdict.
type comparison struct {
	delta   float64 // (after − before) / before, of the medians
	won     float64 // share of pairs where after was strictly better
	verdict string
}

// compareMetric applies the verdict rule. before and after are paired by
// index. The change improved a metric when it won at least nine tenths of
// the pairs (ties count for neither) and the medians differ, in its
// favour, by more than the distance between before's quartiles. When
// either side's quartile spread, as a share of its median, is wider than
// the bound, the metric is unresolved — unless every after run reads
// better than every before run. Otherwise it is worse when after's median
// is worse than before's by more than the bound, and within bound if not.
func compareMetric(before, after []float64, higherBetter bool, bound float64) comparison {
	better := func(x, y float64) bool { // x strictly better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	mb, ma := median(before), median(after)
	c := comparison{}
	if mb != 0 {
		c.delta = (ma - mb) / math.Abs(mb)
	}
	n := min(len(before), len(after))
	wins := 0
	for i := 0; i < n; i++ {
		if better(after[i], before[i]) {
			wins++
		}
	}
	if n > 0 {
		c.won = float64(wins) / float64(n)
	}
	q1b, q3b := quartiles(before)
	q1a, q3a := quartiles(after)
	spreadB := relSpread(q1b, q3b, mb)
	spreadA := relSpread(q1a, q3a, ma)
	if n > 0 && c.won >= 0.9 && better(ma, mb) && math.Abs(ma-mb) > q3b-q1b {
		c.verdict = "improved"
		return c
	}
	allBetter := true
	for _, x := range after {
		for _, y := range before {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := -c.delta
	if !higherBetter {
		worse = c.delta
	}
	switch {
	case spreadB > bound || spreadA > bound || math.IsNaN(spreadB) || math.IsNaN(spreadA):
		if allBetter {
			c.verdict = "within bound (every run better)"
		} else {
			c.verdict = "unresolved (spread wider than bound)"
		}
	case worse > bound:
		c.verdict = "worse"
	default:
		c.verdict = "within bound"
	}
	return c
}

// relSpread is the quartile distance as a share of the median.
func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
