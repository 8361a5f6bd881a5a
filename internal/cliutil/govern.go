package cliutil

import (
	"flag"
	"io"

	"ormprof/internal/govern"
	"ormprof/internal/layout"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// sizeFlag is a self-validating flag.Value for byte-size flags
// (-mem-budget): malformed or negative sizes are rejected in Set, so the
// FlagSet's own error handling prints the message plus usage and exits 2
// uniformly across all tools.
type sizeFlag struct{ n *int64 }

var _ flag.Value = sizeFlag{}

func (v sizeFlag) String() string {
	if v.n == nil {
		return "0"
	}
	return govern.FormatSize(*v.n)
}

func (v sizeFlag) Set(s string) error {
	n, err := govern.ParseSize(s)
	if err != nil {
		return err
	}
	*v.n = n
	return nil
}

// SizeFlag registers a self-validating byte-size flag on fs and returns
// its destination. Tools that do not use RegisterTraceFlags (tracecat's
// positional-file interface) still get the same -mem-budget syntax and
// the same parse-time validation.
func SizeFlag(fs *flag.FlagSet, name, usage string) *int64 {
	n := new(int64)
	fs.Var(sizeFlag{n}, name, usage)
	return n
}

// governed reports whether -mem-budget or -approx was set. It is the one
// place a tool's behaviour depends on those flags; see ProfilePass and
// Finish for the four decisions it drives.
func (ev *Events) governed() bool { return ev.memBudget > 0 || ev.approx }

// memory returns the invocation's memory budget, created on first use.
// Like -deadline, -mem-budget bounds the tool's total footprint, not each
// pass's, so every pass accounts into this one parent.
func (ev *Events) memory() *govern.Budget {
	if ev.mem == nil {
		ev.mem = govern.NewBudget(ev.memBudget)
	}
	return ev.mem
}

// ProfilePass streams one complete pass of the event stream into a
// degradation ladder built around full, the tool's full profiling mode,
// and returns the ladder with the pass's event count and error. Callers
// read the output from ladder.FullMode() — nil once a budget has pushed
// the ladder below the sampled rung — and end with Finish.
//
// Without -mem-budget and -approx the ladder can never trip, so events
// drain straight into its mode at the given worker count (≤ 0 selects
// GOMAXPROCS) and the pass costs what the bare mode costs. With either
// flag, events drain through the ladder and full is built with one
// worker: trip points are then a pure function of (stream, budget,
// seed), and the output is identical for every -workers setting.
//
// The error is the pass error (corruption, deadline, panic), not the
// degradation, which Finish folds in after the output has rendered.
func (ev *Events) ProfilePass(seed uint64, workers int, full func(workers int) govern.Mode) (*govern.Ladder, int, error) {
	governed := ev.governed()
	if governed {
		workers = 1
	}
	cfg := govern.Config{
		Budget: ev.memory().Sub(0),
		Seed:   seed,
		Full:   func() govern.Mode { return full(workers) },
	}
	if ev.approx {
		// -approx: skip the exact rungs entirely. The ladder starts on the
		// fixed-memory sketches and records no step-downs for doing so; a
		// -mem-budget can still push it further.
		cfg.StartRung = govern.RungSketchStride
	}
	lad := govern.NewLadder(cfg)
	var sink trace.Sink = lad
	if !governed {
		sink = lad.Mode()
	}
	n, err := ev.Pass(sink)
	return lad, n, err
}

// Finish ends a tool's output. Under -mem-budget or -approx it appends
// each ladder's governance report — deterministic, so output stays
// byte-comparable across worker counts — and folds each ladder's
// degradation into deg. It returns deg.Err(): nil, or the first salvaged
// error, which makes the tool exit 2.
func (ev *Events) Finish(w io.Writer, deg *Degraded, lads ...*govern.Ladder) error {
	if ev.governed() {
		for _, lad := range lads {
			if err := lad.WriteReport(w); err != nil {
				return err
			}
		}
		for _, lad := range lads {
			if err := deg.Check(lad.Err()); err != nil {
				return err
			}
		}
	}
	return deg.Err()
}

// translateMode is the govern.Mode for tools whose pipeline starts from a
// materialized object-relative record stream: OMC translation plus a
// record collector, and optionally the streaming layout planner riding the
// same records (so a tight budget degrades plan derivation through the
// ladder instead of OOMing).
type translateMode struct {
	o       *omc.OMC
	col     *profiler.Collector
	planner *layout.Planner // nil unless deriving a layout
	cdc     *profiler.CDC
}

func newTranslateMode(sites map[trace.SiteID]string, plan bool) *translateMode {
	m := &translateMode{o: omc.New(sites), col: &profiler.Collector{}}
	if plan {
		m.planner = layout.NewPlanner()
		m.cdc = profiler.NewCDC(m.o, fanout{m.col, m.planner})
	} else {
		m.cdc = profiler.NewCDC(m.o, m.col)
	}
	return m
}

func (m *translateMode) Emit(e trace.Event) { m.cdc.Emit(e) }

func (m *translateMode) Footprint() int64 {
	n := m.o.Footprint() + m.col.Footprint()
	if m.planner != nil {
		n += m.planner.Footprint()
	}
	return n
}

// fanout duplicates the object-relative record stream to several SCCs, so
// plan derivation happens in the same single pass that collects the
// record stream.
type fanout []profiler.SCC

// Consume implements profiler.SCC.
func (f fanout) Consume(r profiler.Record) {
	for _, s := range f {
		s.Consume(r)
	}
}

// Finish implements profiler.SCC.
func (f fanout) Finish() {
	for _, s := range f {
		s.Finish()
	}
}

// Translation is the output of a translate pass: the materialized record
// stream and the object table, plus the streaming planner that watched the
// same pass when a layout was derived. When a budget degraded the pass
// below the sampled rung the stream is gone — OMC is nil and only Ladder
// renders.
type Translation struct {
	Ladder  *govern.Ladder
	Records []profiler.Record
	OMC     *omc.OMC
	Planner *layout.Planner // nil unless from DeriveLayout
	Events  int
}

// Translate runs one pass through a fresh OMC and returns the
// object-relative record stream. The returned error follows the Pass
// convention: a salvaged pass (lenient corruption skip, deadline overrun)
// still returns the partial stream alongside its error; only hard
// failures return nil.
func (ev *Events) Translate(seed uint64) (*Translation, error) {
	return ev.translate(seed, false)
}

// DeriveLayout is Translate with the streaming layout planner riding the
// record stream.
func (ev *Events) DeriveLayout(seed uint64) (*Translation, error) {
	return ev.translate(seed, true)
}

func (ev *Events) translate(seed uint64, plan bool) (*Translation, error) {
	lad, n, err := ev.ProfilePass(seed, 1, func(int) govern.Mode { return newTranslateMode(ev.Sites, plan) })
	if err != nil && !Salvaged(err) {
		return nil, err
	}
	t := &Translation{Ladder: lad, Events: n}
	if m, ok := lad.FullMode().(*translateMode); ok {
		m.cdc.Finish()
		t.Records, t.OMC, t.Planner = m.col.Records, m.o, m.planner
	}
	return t, err
}
