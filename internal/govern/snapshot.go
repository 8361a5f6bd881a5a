package govern

import (
	"fmt"
	"sort"

	"ormprof/internal/sketch"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
)

// This file implements ladder snapshots for checkpoint/restore: the rung,
// the step history, and the state of the govern-owned modes. The full
// pipeline's own state (grammars, LMADs, OMCs) is snapshotted by its
// packages and stored by the caller; the ladder snapshot carries what the
// caller cannot see — which rung is active, why, and the filter/stride/
// counter state of the degraded rungs — so a resumed session continues on
// the same rung instead of silently re-escalating to full profiling.

// FilterObject is one sampled live object tracked by the RungSampled site
// filter.
type FilterObject struct {
	Start uint64
	Size  uint32
}

// SiteCount is one per-site allocation counter.
type SiteCount struct {
	Site   trace.SiteID
	Allocs uint64
}

// CountersSnapshot is the RungCounters state.
type CountersSnapshot struct {
	Sites  []SiteCount // sorted by site
	Frees  uint64
	Loads  uint64
	Stores uint64
}

// LastSlot is one entry of the sketch-stride rung's direct-mapped
// last-address table. Instr is the instruction ID plus one; 0 marks an
// empty slot.
type LastSlot struct {
	Instr uint64
	Addr  uint64
}

// SketchStrideSnapshot is the RungSketchStride state: every sketch plus
// the mid-stream scalars the mode needs to continue byte-identically.
type SketchStrideSnapshot struct {
	Config SketchConfig
	Stride *sketch.CountMinSnapshot
	Totals *sketch.CountMinSnapshot
	Digram *sketch.BloomSnapshot
	Pairs  *sketch.TopKSnapshot
	Hot    *sketch.TopKSnapshot
	Last   []LastSlot
	Prev   uint64 // previous access instruction + 1; 0 = none
	Loads  uint64
	Stores uint64
	Allocs uint64
	Frees  uint64
}

// SketchCountersSnapshot is the RungSketchCounters state.
type SketchCountersSnapshot struct {
	Config SketchConfig
	Sites  *sketch.CountMinSnapshot
	Hot    *sketch.TopKSnapshot
	Loads  uint64
	Stores uint64
	Allocs uint64
	Frees  uint64
}

// Snapshot is the ladder's complete resumable state.
type Snapshot struct {
	Rung      Rung
	Steps     []Step
	Events    uint64
	Seed      uint64
	SampleMod uint64
	// StartRung records the configured starting rung (approximate mode),
	// so a resumed session keeps treating it as its baseline rather than
	// as degradation.
	StartRung Rung

	// Filter holds the sampled live objects, present at RungSampled.
	Filter []FilterObject
	// SketchStride holds the sketch state, present at RungSketchStride.
	SketchStride *SketchStrideSnapshot
	// SketchCounters holds the sketch state, present at RungSketchCounters.
	SketchCounters *SketchCountersSnapshot
	// Stride holds the stride profiler, present at RungStrideOnly.
	Stride *stride.Snapshot
	// Counters holds the per-site counters, present at RungCounters.
	Counters *CountersSnapshot
}

// Snapshot captures the ladder's state. The full-pipeline mode active at
// RungFull/RungSampled is not included — snapshot it separately.
func (l *Ladder) Snapshot() *Snapshot {
	snap := &Snapshot{
		Rung:      l.rung,
		Steps:     l.Steps(),
		Events:    l.events,
		Seed:      l.cfg.Seed,
		SampleMod: l.sampleMod,
		StartRung: l.cfg.StartRung,
	}
	switch l.rung {
	case RungSampled:
		snap.Filter = make([]FilterObject, 0, l.filter.live.Len())
		l.filter.live.Ascend(func(start, size uint64) bool {
			snap.Filter = append(snap.Filter, FilterObject{Start: start, Size: uint32(size)})
			return true
		})
	case RungSketchStride:
		snap.SketchStride = l.sketchStr.snapshot()
	case RungSketchCounters:
		snap.SketchCounters = l.sketchCtr.snapshot()
	case RungStrideOnly:
		snap.Stride = l.stride.ideal.Snapshot()
	case RungCounters:
		c := &CountersSnapshot{
			Sites:  make([]SiteCount, 0, len(l.counters.siteAllocs)),
			Frees:  l.counters.frees,
			Loads:  l.counters.loads,
			Stores: l.counters.stores,
		}
		for site, n := range l.counters.siteAllocs {
			c.Sites = append(c.Sites, SiteCount{Site: site, Allocs: n})
		}
		sort.Slice(c.Sites, func(i, j int) bool { return c.Sites[i].Site < c.Sites[j].Site })
		snap.Counters = c
	}
	return snap
}

// RestoreLadder reconstructs a ladder from a snapshot. full is the restored
// full-pipeline mode and is required at RungFull and RungSampled (where it
// goes behind the restored site filter); it is ignored at the lower rungs,
// whose state lives in the snapshot itself. cfg.Full is still needed: a
// restored RungFull ladder that later trips builds its sampled pipeline
// with it. The restored footprint is re-accounted into cfg.Budget, so the
// budget's view of the session survives the restart.
func RestoreLadder(cfg Config, snap *Snapshot, full Mode) (*Ladder, error) {
	if snap == nil {
		if full != nil {
			// An old checkpoint with no ladder snapshot but a restored
			// full pipeline: the session was at full when it was written,
			// so it resumes at RungFull. cfg.StartRung is deliberately
			// ignored here — honouring it would discard the restored
			// pipeline state the caller just rebuilt.
			if cfg.Budget == nil {
				cfg.Budget = NewBudget(0)
			}
			l := &Ladder{cfg: cfg, sampleMod: DefaultSampleMod, cur: full}
			l.account()
			return l, nil
		}
		return NewLadder(cfg), nil
	}
	if cfg.Budget == nil {
		cfg.Budget = NewBudget(0)
	}
	cfg.Seed = snap.Seed
	cfg.StartRung = snap.StartRung
	l := &Ladder{
		cfg:       cfg,
		sampleMod: snap.SampleMod,
		rung:      snap.Rung,
		steps:     append([]Step(nil), snap.Steps...),
		events:    snap.Events,
	}
	if l.sampleMod == 0 {
		l.sampleMod = DefaultSampleMod
	}
	switch snap.Rung {
	case RungFull, RungSampled:
		if full == nil {
			return nil, fmt.Errorf("govern: restore at rung %s needs the restored full mode", snap.Rung)
		}
		if snap.Rung == RungFull {
			l.cur = full
			break
		}
		l.filter = newSiteFilter(cfg.Seed, l.sampleMod, full)
		for _, o := range snap.Filter {
			l.filter.live.Set(o.Start, uint64(o.Size))
		}
		l.cur = l.filter
	case RungSketchStride:
		m, err := restoreSketchStrideMode(snap.SketchStride)
		if err != nil {
			return nil, fmt.Errorf("govern: restore sketch-stride mode: %w", err)
		}
		l.sketchStr = m
		l.cur = m
	case RungSketchCounters:
		m, err := restoreSketchCountersMode(snap.SketchCounters)
		if err != nil {
			return nil, fmt.Errorf("govern: restore sketch-counters mode: %w", err)
		}
		l.sketchCtr = m
		l.cur = m
	case RungStrideOnly:
		ideal, err := stride.FromSnapshot(snap.Stride)
		if err != nil {
			return nil, fmt.Errorf("govern: restore stride mode: %w", err)
		}
		l.stride = &strideMode{ideal: ideal}
		l.cur = l.stride
	case RungCounters:
		if snap.Counters == nil {
			return nil, fmt.Errorf("govern: counters rung snapshot has no counters")
		}
		c := newCountersMode()
		c.frees = snap.Counters.Frees
		c.loads = snap.Counters.Loads
		c.stores = snap.Counters.Stores
		for _, s := range snap.Counters.Sites {
			c.siteAllocs[s.Site] = s.Allocs
		}
		c.foot = int64(len(c.siteAllocs)) * counterEntryBytes
		l.counters = c
		l.cur = c
	default:
		return nil, fmt.Errorf("govern: snapshot has unknown rung %d", snap.Rung)
	}
	l.account()
	return l, nil
}
