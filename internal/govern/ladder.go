package govern

import (
	"sort"

	"ormprof/internal/stride"
	"ormprof/internal/trace"
)

// Mode is what a ladder governs: an event sink whose live memory it can
// account. The full profiling pipelines (whomp.Profiler, leap.Profiler,
// stride.Ideal, …) implement it; the ladder's own degraded modes do too.
type Mode interface {
	trace.Sink
	// Footprint reports the mode's approximate live bytes. It must be
	// O(1) — incrementally maintained on mutation, never a walk — because
	// the ladder reads it after every event.
	Footprint() int64
}

// DefaultSampleMod is the default site-sampling modulus at RungSampled:
// roughly one in this many allocation sites is kept.
const DefaultSampleMod = 4

// Config configures a Ladder.
type Config struct {
	// Budget is the enforced memory budget. nil means account-only
	// (never trips).
	Budget *Budget
	// Seed drives the deterministic site subset at RungSampled.
	Seed uint64
	// Full builds a fresh full-profiling mode. It is called once at
	// construction and again on the step to RungSampled (the sampled rung
	// profiles with a fresh pipeline so the exploded structures of the
	// full rung are actually freed).
	Full func() Mode
	// StartRung starts the ladder below full profiling — approximate
	// mode, the CLI's -approx. A ladder started at RungSketchStride or
	// RungSketchCounters records no step-downs, so Err() stays nil (the
	// run is approximate by request, not degraded) unless the budget
	// forces further steps. Any other value starts at RungFull.
	StartRung Rung
}

// Ladder is a trace.Sink that wraps a profiling mode in budget
// enforcement: after every event it folds the mode's footprint delta into
// the budget, and while the budget is over its watermark it steps down to
// the next cheaper mode. Stepping down discards the current mode's state
// (returning its accounted bytes) and continues the stream in the new
// mode from the current position.
//
// A Ladder is not safe for concurrent use; governed pipelines are
// sequential by design (see the package comment's determinism contract).
type Ladder struct {
	cfg       Config
	sampleMod uint64 // RungSampled keeps one in sampleMod sites
	rung      Rung
	cur       Mode
	filter    *siteFilter         // non-nil at RungSampled
	sketchStr *sketchStrideMode   // non-nil at RungSketchStride
	sketchCtr *sketchCountersMode // non-nil at RungSketchCounters
	stride    *strideMode         // non-nil at RungStrideOnly
	counters  *countersMode       // non-nil at RungCounters
	steps     []Step
	events    uint64
	reported  int64 // bytes currently accounted into the budget
	sites     map[trace.SiteID]string
}

// NewLadder creates a ladder at cfg.StartRung (RungFull by default).
func NewLadder(cfg Config) *Ladder {
	if cfg.Budget == nil {
		cfg.Budget = NewBudget(0)
	}
	l := &Ladder{cfg: cfg, sampleMod: DefaultSampleMod}
	switch cfg.StartRung {
	case RungSketchStride:
		l.rung = RungSketchStride
		l.sketchStr = newSketchStrideMode()
		l.cur = l.sketchStr
	case RungSketchCounters:
		l.rung = RungSketchCounters
		l.sketchCtr = newSketchCountersMode()
		l.cur = l.sketchCtr
	default:
		l.cur = cfg.Full()
	}
	l.account()
	return l
}

// NameSite implements trace.SiteNamer: names are remembered (so modes
// built by later step-downs can receive them) and forwarded to the
// current mode.
func (l *Ladder) NameSite(site trace.SiteID, name string) {
	if l.sites == nil {
		l.sites = make(map[trace.SiteID]string)
	}
	l.sites[site] = name
	if n, ok := l.cur.(trace.SiteNamer); ok {
		n.NameSite(site, name)
	}
}

// Emit implements trace.Sink: deliver, account, and step down while the
// budget is over its watermark.
func (l *Ladder) Emit(e trace.Event) {
	l.events++
	l.cur.Emit(e)
	l.account()
	for l.cfg.Budget.Over() && !l.rung.Floor() {
		l.stepDown()
	}
}

// account folds the current mode's footprint delta into the budget.
func (l *Ladder) account() {
	f := l.cur.Footprint()
	if d := f - l.reported; d != 0 {
		l.cfg.Budget.Add(d)
		l.reported = f
	}
}

// stepDown moves to the next rung, discarding the current mode's state.
//
// Sketch rungs are special-cased: their footprint is fixed and known at
// construction, so one that cannot fit under the budget is skipped
// outright. Building it, charging it, and immediately re-tripping would
// spike the accounted peak above the limit the ladder exists to enforce.
func (l *Ladder) stepDown() {
	used := l.cfg.Budget.Used()
	from := l.rung
	next, ok := l.rung.Next()
	if !ok {
		return
	}
	var sketchMode Mode
	for next.Sketch() {
		if next == RungSketchStride {
			sketchMode = Mode(newSketchStrideMode())
		} else {
			sketchMode = Mode(newSketchCountersMode())
		}
		// The check simulates replacing the current mode's accounted
		// bytes with the candidate's fixed footprint.
		if !l.cfg.Budget.WouldOver(sketchMode.Footprint() - l.reported) {
			break
		}
		sketchMode = nil
		n, ok := next.Next()
		if !ok {
			break
		}
		next = n
	}
	l.filter, l.sketchStr, l.sketchCtr, l.stride, l.counters = nil, nil, nil, nil, nil
	switch next {
	case RungSampled:
		inner := l.cfg.Full()
		l.replayNames(inner)
		l.filter = newSiteFilter(l.cfg.Seed, l.sampleMod, inner)
		l.cur = l.filter
	case RungSketchStride:
		l.sketchStr = sketchMode.(*sketchStrideMode)
		l.cur = l.sketchStr
	case RungSketchCounters:
		l.sketchCtr = sketchMode.(*sketchCountersMode)
		l.cur = l.sketchCtr
	case RungStrideOnly:
		l.stride = newStrideMode()
		l.cur = l.stride
	case RungCounters:
		l.counters = newCountersMode()
		l.cur = l.counters
	}
	l.rung = next
	l.steps = append(l.steps, Step{From: from, To: l.rung, Event: l.events, Used: used})
	l.account()
}

// replayNames hands the remembered site names to a freshly built mode, in
// sorted order for determinism.
func (l *Ladder) replayNames(m Mode) {
	n, ok := m.(trace.SiteNamer)
	if !ok || len(l.sites) == 0 {
		return
	}
	ids := make([]trace.SiteID, 0, len(l.sites))
	for id := range l.sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.NameSite(id, l.sites[id])
	}
}

// ForceStep steps down one rung regardless of the budget (load shedding).
// It reports false at the floor.
func (l *Ladder) ForceStep() bool {
	if l.rung.Floor() {
		return false
	}
	l.stepDown()
	return true
}

// Rung reports the current rung.
func (l *Ladder) Rung() Rung { return l.rung }

// Events reports how many events the ladder has delivered.
func (l *Ladder) Events() uint64 { return l.events }

// Budget returns the ladder's budget.
func (l *Ladder) Budget() *Budget { return l.cfg.Budget }

// Steps returns a copy of the step-down history.
func (l *Ladder) Steps() []Step { return append([]Step(nil), l.steps...) }

// Mode returns the mode currently consuming events. At RungFull this is
// the value Config.Full returned; at RungSampled it is the site filter
// wrapping a fresh full mode (Inner exposes it); below that it is the
// ladder's own degraded mode.
func (l *Ladder) Mode() Mode { return l.cur }

// FullMode returns the full-pipeline mode that is producing output, or
// nil below RungSampled: at RungFull the governed mode itself, at
// RungSampled the fresh pipeline behind the site filter.
func (l *Ladder) FullMode() Mode {
	switch l.rung {
	case RungFull:
		return l.cur
	case RungSampled:
		return l.filter.inner
	default:
		return nil
	}
}

// StrideProfiler returns the stride-only rung's lossless stride profiler,
// or nil unless the ladder is at RungStrideOnly.
func (l *Ladder) StrideProfiler() *stride.Ideal {
	if l.stride == nil {
		return nil
	}
	return l.stride.ideal
}

// Err returns nil after an undegraded run, or the typed *DegradedError
// describing the final mode and every step-down.
func (l *Ladder) Err() error {
	if len(l.steps) == 0 {
		return nil
	}
	return &DegradedError{
		Limit: l.cfg.Budget.EffectiveLimit(),
		Rung:  l.rung,
		Steps: l.Steps(),
	}
}
