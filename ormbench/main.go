// Command ormbench is the repository's end-to-end benchmark. One run
// drives one workload through the profiler's public entry points — the
// same packages cmd/* and ormpd are built from — for a measurement window,
// checks that every output is correct, and prints its metrics by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {"events_per_s": {"value": …, "unit": "1/s"}, …}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every layer call and reports the per-layer
// metrics and a layer-share table instead. The line before it is the full
// record (reproducibility metadata, sample counts, the percentile each
// timing reports, failures by session and file), which the compare
// subcommand reads:
//
//	ormbench -workload daemon-exact -seed 42 -seconds 20 -trace 0
//	ormbench compare before.txt after.txt
//
// Run it through run.sh, which builds it from the checkout's sources. See
// NOTES.md for the workloads, the metrics and the first measured tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"ormprof/internal/serve"
)

// setupRepeats is how many times a run builds its inputs; setup_s reports
// the median, and the last build is the one measured.
const setupRepeats = 7

// workload is one traffic mix.
type workload struct {
	name string
	// toFile records the traces as ORMTRACE files instead of frames.
	toFile bool
	// start brings up whatever serves the sessions; stop tears it down.
	start func(b *bench) error
	stop  func(b *bench)
	// session runs one timed session (a job or a Push) and fills s.
	session func(b *bench, s *session)
	// exclusive keeps two sessions of one trace from overlapping, because
	// the daemon writes both to the same <workload>.* output files.
	exclusive bool
	// clients is the closed loop's client count.
	clients func() int
	// finish runs inside the timed region after the last session.
	finish func(b *bench) error
	// check verifies outputs after the timed region.
	check func(b *bench)
	// replay re-runs one trace layer by layer after the timed region of
	// a traced run, under a span named "replay".
	replay func(b *bench, in *input) (*layerStats, error)
	// extra measures per-layer numbers that are not replays (traced runs).
	extra func(b *bench) error
}

var workloadList = []*workload{offlineReplay, daemonExact, clusterApprox}

func findWorkload(name string) *workload {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

// session is one job (offline) or one Push (daemon workloads).
type session struct {
	id    string
	in    *input
	dur   time.Duration
	err   error
	stats serve.ClientStats
	// sums holds the SHA-256 of each output artifact, by extension.
	sums map[string][32]byte
	span int
}

// bench is one run's state.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	tr     *tracer
	out    io.Writer

	runDir string // removed when the run ends
	dir    string // the current setup's directory
	inputs []*input

	// Server workloads.
	addr    string
	srv     *serve.Server
	srvDone chan error
	cluster *serve.Cluster

	sessions []*session
	rounds   int
	wall     time.Duration
	cpu      time.Duration
	rt0, rt1 runtimeSample
	peakRSS  int64 // high-water mark of the timed region
	// peakStat says what peakRSS covers: "max" over the timed region, or
	// "process max" where the high-water mark could not be reset.
	peakStat string
	merge    *serve.ClusterStats
	mergeDur time.Duration

	// refs holds each trace's reference artifact hashes.
	refs map[string]map[string][32]byte

	mu       sync.Mutex
	failures []string
	layers   []*layerStats
	router   *metric // router.overhead_ms, from a traced cluster run
}

func (b *bench) failf(format string, args ...any) {
	b.mu.Lock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// metric is one reported number. Samples is how many observations it
// summarizes, and Stat how: a percentile ("p50"), a ratio of totals
// ("total"), a median over sessions ("median"), or a single reading.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Stat    string  `json:"stat"`
}

// record is a run's full result: the line the comparator reads.
type record struct {
	Workload           string            `json:"workload"`
	Traced             bool              `json:"traced"`
	Meta               meta              `json:"meta"`
	Correct            bool              `json:"correct"`
	Attempted          int               `json:"attempted"`
	Failed             int               `json:"failed"`
	FailedSessionRatio float64           `json:"failed_session_ratio"`
	Failures           []string          `json:"failures,omitempty"`
	Metrics            map[string]metric `json:"metrics"`
	// EndToEnd holds a traced run's end-to-end numbers; their difference
	// from an untraced run's is the tracing overhead.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	Shares   []shareRow        `json:"layer_shares,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ormbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: offline-replay, daemon-exact or cluster-approx")
	seed := fs.Int64("seed", 42, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "ormbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, out: stdout}
	if *traced == 1 {
		b.tr = newTracer()
	}
	rec, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "ormbench: %s: %v\n", w.name, err)
		return 1
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "ormbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(full))
	fmt.Fprintln(stdout, string(contractLine(rec)))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// contractLine is the last output line: correctness, counts and every
// metric as value and unit.
func contractLine(rec *record) []byte {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(rec.Metrics))
	for k, m := range rec.Metrics {
		ms[k] = vu{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
	return line
}

// run performs setup (several times), the timed region, the output check
// and, when traced, the layer replay.
func (b *bench) run() (*record, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.runDir, err = os.MkdirTemp(base, b.w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)

	// stop is idempotent: it tears down the previous setup before each
	// repeat, the last one before the record, and anything an error left.
	defer b.w.stop(b)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		b.w.stop(b)
		t0 := time.Now()
		if err := b.setup(i); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.measure(); err != nil {
		return nil, err
	}
	b.w.check(b)
	if b.tr != nil {
		if err := b.traceLayers(); err != nil {
			return nil, err
		}
	}
	b.w.stop(b)
	return b.record(setups), nil
}

// setup builds the inputs into a fresh directory and starts the server.
func (b *bench) setup(i int) error {
	b.dir = filepath.Join(b.runDir, fmt.Sprintf("setup%d", i))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	b.inputs = nil
	runtime.GC()
	ins, err := generate(b.seed, b.dir, b.w.toFile)
	if err != nil {
		return err
	}
	b.inputs = ins
	return b.w.start(b)
}

// measure runs the timed region: rounds of sessions, then finish.
func (b *bench) measure() error {
	// Return setup's freed heap to the OS, then start the high-water mark
	// from here, so peak_rss_mb is what the timed region needed.
	debug.FreeOSMemory()
	b.peakStat = "max"
	if resetPeakRSS() != nil {
		b.peakStat = "process max"
	}
	b.rt0 = readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	b.runRounds()
	var err error
	if b.w.finish != nil {
		err = b.w.finish(b)
	}
	b.wall = time.Since(t0)
	b.cpu = cpuTime() - cpu0
	b.rt1 = readRuntime()
	b.peakRSS = peakRSSBytes()
	return err
}

// runRounds drives the closed loop. A round is every input once, longest
// trace first, so a round's mix is the same whatever the seed and the
// long sessions do not end up alone at its tail. Clients take the next
// session as soon as their previous one returns. A new round starts only
// while the last round's hand-out time still fits before the window
// closes, so a run measures whole rounds and its mix never depends on
// where the window happens to cut.
func (b *bench) runRounds() {
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		pending  []*input
		inFlight = make(map[string]bool)
		started  = time.Now()
		roundAt  time.Duration
		stop     bool
		nextID   int
	)
	next := func() *session {
		mu.Lock()
		defer mu.Unlock()
		for {
			if len(pending) == 0 && !stop {
				now := time.Since(started)
				if b.rounds > 0 && now+(now-roundAt) > b.window {
					stop = true
				} else {
					pending = append(pending, b.inputs...)
					roundAt = now
					b.rounds++
				}
			}
			if len(pending) == 0 {
				return nil
			}
			for i, in := range pending {
				if b.w.exclusive && inFlight[in.name] {
					continue
				}
				pending = append(pending[:i:i], pending[i+1:]...)
				inFlight[in.name] = true
				s := &session{id: fmt.Sprintf("s%04d-%s", nextID, in.name), in: in, span: -1}
				nextID++
				b.sessions = append(b.sessions, s)
				return s
			}
			cond.Wait()
		}
	}
	done := func(s *session) {
		mu.Lock()
		delete(inFlight, s.in.name)
		cond.Broadcast()
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := next(); s != nil; s = next() {
				b.w.session(b, s)
				done(s)
			}
		}()
	}
	wg.Wait()
}

// traceLayers replays each distinct trace layer by layer (spans around
// every call), records the extra per-layer metrics, prints the
// layer-share table and writes the spans out.
func (b *bench) traceLayers() error {
	for _, in := range b.inputs {
		ls, err := b.w.replay(b, in)
		if err != nil {
			return fmt.Errorf("replay %s: %w", in.name, err)
		}
		b.layers = append(b.layers, ls)
	}
	if b.w.extra != nil {
		if err := b.w.extra(b); err != nil {
			return err
		}
	}
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := writeSpans(path, b.tr.snapshot()); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans written to %s\n", path)
	return nil
}

// timed runs f as session s's timed part, under the session's span.
func (b *bench) timed(s *session, f func()) {
	s.span = b.tr.begin("session", -1, s.id)
	t0 := time.Now()
	f()
	s.dur = time.Since(t0)
	b.tr.end(s.span)
}

// completed returns the sessions that finished without error.
func (b *bench) completed() []*session {
	var out []*session
	for _, s := range b.sessions {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// record assembles the result.
func (b *bench) record(setups []float64) *record {
	rec := &record{
		Workload:  b.w.name,
		Traced:    b.tr != nil,
		Meta:      hostMeta(b.seed, int(b.window/time.Second)),
		Attempted: len(b.sessions),
	}
	rec.Meta.Clients = b.w.clients()
	rec.Meta.Rounds = b.rounds
	rec.Meta.Setups = setupRepeats
	for _, s := range b.sessions {
		if s.err != nil {
			b.failf("%s: %v", s.id, s.err)
		}
	}
	// A session failed if it errored or a check names it; a failure not
	// tied to one session (a merge count, a golden hash) fails the run.
	failed := make(map[string]bool)
	for _, f := range b.failures {
		id, _, _ := strings.Cut(f, ":")
		if b.isSession(id) {
			failed[id] = true
		}
	}
	rec.Failed = len(failed)
	rec.Failures = append([]string(nil), b.failures...)
	sort.Strings(rec.Failures)
	rec.Correct = len(b.failures) == 0
	if rec.Attempted > 0 {
		rec.FailedSessionRatio = float64(rec.Failed) / float64(rec.Attempted)
	}
	e2e := b.endToEnd(setups)
	if b.tr == nil {
		rec.Metrics = e2e
	} else {
		rec.EndToEnd = e2e
		rec.Metrics = b.perLayer()
		rec.Shares = b.shares()
		printShares(b.out, b.w.name, rec.Shares)
	}
	printRecord(b.out, rec)
	return rec
}

func (b *bench) isSession(id string) bool {
	for _, s := range b.sessions {
		if s.id == id {
			return true
		}
	}
	return false
}

// endToEnd computes the metrics a user of the profiler sees.
func (b *bench) endToEnd(setups []float64) map[string]metric {
	var events int
	durs := make([]float64, 0, len(b.sessions))
	for _, s := range b.sessions {
		durs = append(durs, float64(s.dur)/1e6)
	}
	for _, s := range b.completed() {
		events += s.in.events
	}
	n := len(durs)
	perEvent := func(d time.Duration) float64 {
		if events == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(events)
	}
	return map[string]metric{
		"events_per_s":     {float64(events) / b.wall.Seconds(), "1/s", n, "total"},
		"session_p50_ms":   {quantile(durs, 0.5), "ms", n, fmt.Sprintf("p50 (%d beyond)", beyond(durs, 0.5))},
		"session_p90_ms":   {quantile(durs, 0.9), "ms", n, fmt.Sprintf("p90 (%d beyond)", beyond(durs, 0.9))},
		"cpu_ns_per_event": {perEvent(b.cpu), "ns", n, "total"},
		"peak_rss_mb":      {float64(b.peakRSS) / (1 << 20), "MB", 1, b.peakStat},
		"setup_s":          {median(setups), "s", len(setups), "median"},
	}
}

// printRecord writes the human-readable summary.
func printRecord(w io.Writer, rec *record) {
	m := rec.Meta
	fmt.Fprintf(w, "%s seed=%d traced=%v nproc=%d gomaxprocs=%d clients=%d rounds=%d %s %s/%s cpu=%q\n",
		rec.Workload, m.Seed, rec.Traced, m.NProc, m.GOMAXPROCS, m.Clients, m.Rounds, m.GoVersion, m.OS, m.Arch, m.CPUModel)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d failed_session_ratio=%g\n",
		rec.Correct, rec.Attempted, rec.Failed, rec.FailedSessionRatio)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rec.Metrics[k]
		fmt.Fprintf(w, "  %-32s %16.4f %-6s n=%-5d %s\n", k, v.Value, v.Unit, v.Samples, v.Stat)
	}
}
