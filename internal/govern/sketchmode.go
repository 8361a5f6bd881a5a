package govern

import (
	"fmt"

	"ormprof/internal/sketch"
	"ormprof/internal/trace"
)

// DefaultSketchSeed seeds the sketch rungs' hashing. It is a package
// constant — NOT the ladder's per-session Config.Seed — because the
// cluster merge plane folds per-session sketches together, and count-min
// cells and bloom bits are only comparable between sketches hashed with
// the same seed. Per-session variation lives in the object-sampling
// filter; the sketch rungs trade it for cross-session mergeability.
const DefaultSketchSeed = 0x5ce7c4a1d3b2f109

// SketchConfig records the sizes a sketch rung was built with, as its
// snapshot carries them. New rungs are always built at the defaults
// (defaultSketch); a restored rung keeps the sizes its snapshot records,
// with a zero field selecting the default. All sizes are fixed at
// construction, so a sketch rung's footprint is a constant (≈256K for
// sketch-stride, ≈22K for sketch-counters) regardless of trace length.
type SketchConfig struct {
	// Seed seeds all sketch hashing (0 selects DefaultSketchSeed).
	Seed uint64
	// Depth is the count-min depth d; δ = e^−d (0 selects 4).
	Depth int
	// StrideWidth is the (instruction, stride) count-min width; ε = e/w
	// (0 selects 4096).
	StrideWidth int
	// TotalWidth is the per-instruction totals count-min width
	// (0 selects 2048).
	TotalWidth int
	// SiteWidth is the per-site allocation count-min width at
	// sketch-counters (0 selects 512).
	SiteWidth int
	// TopK is the heavy-hitter capacity; overcount bound N/k
	// (0 selects 64).
	TopK int
	// BloomBits sizes the seen-digram bloom filter (0 selects 1<<17).
	BloomBits int
	// LastSlots sizes the direct-mapped last-address table that stride
	// deltas are computed from (0 selects 2048).
	LastSlots int
}

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Seed == 0 {
		c.Seed = DefaultSketchSeed
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.StrideWidth == 0 {
		c.StrideWidth = 4096
	}
	if c.TotalWidth == 0 {
		c.TotalWidth = 2048
	}
	if c.SiteWidth == 0 {
		c.SiteWidth = 512
	}
	if c.TopK == 0 {
		c.TopK = 64
	}
	if c.BloomBits == 0 {
		c.BloomBits = 1 << 17
	}
	if c.LastSlots == 0 {
		c.LastSlots = 2048
	}
	return c
}

// lastSlot is one entry of the direct-mapped last-address table. Instr
// stores the instruction ID plus one (0 = empty slot).
type lastSlot struct {
	instr uint64
	addr  uint64
}

// sketchStrideMode implements RungSketchStride. Everything is fixed
// memory: stride deltas come from a direct-mapped last-address table
// (collisions evict deterministically — the table is a pure function of
// the stream), the per-(instruction, stride) histogram and the
// per-instruction totals are count-min sketches, hot cache lines and
// strongly-strided pairs are space-saving top-K summaries, and the
// seen-digram test feeding grammar-admission statistics is a bloom
// filter. Exact scalars (loads/stores/allocs/frees) ride along for free.
type sketchStrideMode struct {
	cfg    SketchConfig
	strC   *sketch.CountMin // (instr, stride-bits) -> count
	totC   *sketch.CountMin // (instr) -> executions with a stride sample
	dig    *sketch.Bloom    // (prev instr, instr) digrams
	pairs  *sketch.TopK     // heavy (instr, stride-bits) pairs
	hot    *sketch.TopK     // heavy cache lines (hot-object proxy)
	last   []lastSlot
	mask   uint64
	prev   uint64 // previous access instruction + 1; 0 = none
	loads  uint64
	stores uint64
	allocs uint64
	frees  uint64
	foot   int64
}

// defaultSketch is the configuration every new sketch rung is built with.
var defaultSketch = SketchConfig{}.withDefaults()

func newSketchStrideMode() *sketchStrideMode {
	cfg := defaultSketch
	m := &sketchStrideMode{
		cfg:   cfg,
		strC:  sketch.NewCountMin(cfg.Depth, cfg.StrideWidth, cfg.Seed),
		totC:  sketch.NewCountMin(cfg.Depth, cfg.TotalWidth, cfg.Seed+1),
		dig:   sketch.NewBloom(cfg.BloomBits, 4, cfg.Seed+2),
		pairs: sketch.NewTopK(cfg.TopK),
		hot:   sketch.NewTopK(cfg.TopK),
		last:  make([]lastSlot, ceilPow2(cfg.LastSlots)),
	}
	m.mask = uint64(len(m.last)) - 1
	m.foot = m.strC.Footprint() + m.totC.Footprint() + m.dig.Footprint() +
		m.pairs.Footprint() + m.hot.Footprint() + int64(len(m.last))*16 + 128
	return m
}

func ceilPow2(n int) uint64 {
	p := uint64(2)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

func (m *sketchStrideMode) Emit(e trace.Event) {
	switch e.Kind {
	case trace.EvAlloc:
		m.allocs++
		return
	case trace.EvFree:
		m.frees++
		return
	}
	if e.Store {
		m.stores++
	} else {
		m.loads++
	}
	instr := uint64(e.Instr)
	addr := uint64(e.Addr)

	// Seen-digram test: has this (prev, cur) instruction pair occurred?
	if m.prev != 0 {
		m.dig.Add(sketch.Key{A: m.prev - 1, B: instr})
	}
	m.prev = instr + 1

	// Stride sample against the direct-mapped last-address table.
	slot := &m.last[mix(m.cfg.Seed^instr)&m.mask]
	if slot.instr == instr+1 {
		strideBits := addr - slot.addr // two's-complement delta
		k := sketch.Key{A: instr, B: strideBits}
		m.strC.Add(k, 1)
		m.totC.Add(sketch.Key{A: instr}, 1)
		m.pairs.Add(k, 1)
	}
	slot.instr = instr + 1
	slot.addr = addr

	// Hot cache lines: the fixed-memory proxy for hot objects once the
	// object map is gone.
	m.hot.Add(sketch.Key{A: addr >> 6}, 1)
}

func (m *sketchStrideMode) Footprint() int64 { return m.foot }

// sketchCountersMode implements RungSketchCounters: a count-min sketch
// of per-site allocation counts plus top-K hot sites, with exact scalar
// totals. Unlike the exact counters floor its footprint does not grow
// with the number of distinct sites.
type sketchCountersMode struct {
	cfg    SketchConfig
	sites  *sketch.CountMin // (site) -> allocs
	hot    *sketch.TopK     // heavy allocation sites
	loads  uint64
	stores uint64
	allocs uint64
	frees  uint64
	foot   int64
}

func newSketchCountersMode() *sketchCountersMode {
	cfg := defaultSketch
	m := &sketchCountersMode{
		cfg:   cfg,
		sites: sketch.NewCountMin(cfg.Depth, cfg.SiteWidth, cfg.Seed+3),
		hot:   sketch.NewTopK(cfg.TopK),
	}
	m.foot = m.sites.Footprint() + m.hot.Footprint() + 128
	return m
}

func (m *sketchCountersMode) Emit(e trace.Event) {
	switch e.Kind {
	case trace.EvAlloc:
		m.allocs++
		k := sketch.Key{A: uint64(e.Site)}
		m.sites.Add(k, 1)
		m.hot.Add(k, 1)
	case trace.EvFree:
		m.frees++
	case trace.EvAccess:
		if e.Store {
			m.stores++
		} else {
			m.loads++
		}
	}
}

func (m *sketchCountersMode) Footprint() int64 { return m.foot }

func (m *sketchStrideMode) snapshot() *SketchStrideSnapshot {
	last := make([]LastSlot, len(m.last))
	for i, s := range m.last {
		last[i] = LastSlot{Instr: s.instr, Addr: s.addr}
	}
	return &SketchStrideSnapshot{
		Config: m.cfg,
		Stride: m.strC.Snapshot(),
		Totals: m.totC.Snapshot(),
		Digram: m.dig.Snapshot(),
		Pairs:  m.pairs.Snapshot(),
		Hot:    m.hot.Snapshot(),
		Last:   last,
		Prev:   m.prev,
		Loads:  m.loads,
		Stores: m.stores,
		Allocs: m.allocs,
		Frees:  m.frees,
	}
}

func (m *sketchCountersMode) snapshot() *SketchCountersSnapshot {
	return &SketchCountersSnapshot{
		Config: m.cfg,
		Sites:  m.sites.Snapshot(),
		Hot:    m.hot.Snapshot(),
		Loads:  m.loads,
		Stores: m.stores,
		Allocs: m.allocs,
		Frees:  m.frees,
	}
}

// restoreSketchStrideMode rebuilds the mode from its snapshot so that a
// resumed session continues byte-identically.
func restoreSketchStrideMode(s *SketchStrideSnapshot) (*sketchStrideMode, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot missing")
	}
	strC, err := sketch.RestoreCountMin(s.Stride)
	if err != nil {
		return nil, err
	}
	totC, err := sketch.RestoreCountMin(s.Totals)
	if err != nil {
		return nil, err
	}
	dig, err := sketch.RestoreBloom(s.Digram)
	if err != nil {
		return nil, err
	}
	pairs, err := sketch.RestoreTopK(s.Pairs)
	if err != nil {
		return nil, err
	}
	hot, err := sketch.RestoreTopK(s.Hot)
	if err != nil {
		return nil, err
	}
	n := uint64(len(s.Last))
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("corrupt last-address table: %d slots", n)
	}
	m := &sketchStrideMode{
		cfg:    s.Config.withDefaults(),
		strC:   strC,
		totC:   totC,
		dig:    dig,
		pairs:  pairs,
		hot:    hot,
		last:   make([]lastSlot, n),
		mask:   n - 1,
		prev:   s.Prev,
		loads:  s.Loads,
		stores: s.Stores,
		allocs: s.Allocs,
		frees:  s.Frees,
	}
	for i, slot := range s.Last {
		m.last[i] = lastSlot{instr: slot.Instr, addr: slot.Addr}
	}
	m.foot = m.strC.Footprint() + m.totC.Footprint() + m.dig.Footprint() +
		m.pairs.Footprint() + m.hot.Footprint() + int64(len(m.last))*16 + 128
	return m, nil
}

// restoreSketchCountersMode rebuilds the mode from its snapshot.
func restoreSketchCountersMode(s *SketchCountersSnapshot) (*sketchCountersMode, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot missing")
	}
	sites, err := sketch.RestoreCountMin(s.Sites)
	if err != nil {
		return nil, err
	}
	hot, err := sketch.RestoreTopK(s.Hot)
	if err != nil {
		return nil, err
	}
	m := &sketchCountersMode{
		cfg:    s.Config.withDefaults(),
		sites:  sites,
		hot:    hot,
		loads:  s.Loads,
		stores: s.Stores,
		allocs: s.Allocs,
		frees:  s.Frees,
	}
	m.foot = m.sites.Footprint() + m.hot.Footprint() + 128
	return m, nil
}

// Merge folds other into s for the cluster merge plane: count-min cells
// add, bloom bits OR, top-K summaries combine with the mergeable-
// summaries construction, exact scalars sum. The mid-stream fields
// (last-address table, previous instruction) are cleared — a merged
// snapshot describes a union of finished streams and is for reporting,
// not for resuming. Shape or seed mismatches surface as
// *sketch.MismatchError.
func (s *SketchStrideSnapshot) Merge(other *SketchStrideSnapshot) error {
	strC, err := sketch.RestoreCountMin(s.Stride)
	if err != nil {
		return err
	}
	oStr, err := sketch.RestoreCountMin(other.Stride)
	if err != nil {
		return err
	}
	if err := strC.Merge(oStr); err != nil {
		return err
	}
	totC, err := sketch.RestoreCountMin(s.Totals)
	if err != nil {
		return err
	}
	oTot, err := sketch.RestoreCountMin(other.Totals)
	if err != nil {
		return err
	}
	if err := totC.Merge(oTot); err != nil {
		return err
	}
	dig, err := sketch.RestoreBloom(s.Digram)
	if err != nil {
		return err
	}
	oDig, err := sketch.RestoreBloom(other.Digram)
	if err != nil {
		return err
	}
	if err := dig.Merge(oDig); err != nil {
		return err
	}
	pairs, err := sketch.RestoreTopK(s.Pairs)
	if err != nil {
		return err
	}
	oPairs, err := sketch.RestoreTopK(other.Pairs)
	if err != nil {
		return err
	}
	if err := pairs.Merge(oPairs); err != nil {
		return err
	}
	hot, err := sketch.RestoreTopK(s.Hot)
	if err != nil {
		return err
	}
	oHot, err := sketch.RestoreTopK(other.Hot)
	if err != nil {
		return err
	}
	if err := hot.Merge(oHot); err != nil {
		return err
	}
	s.Stride = strC.Snapshot()
	s.Totals = totC.Snapshot()
	s.Digram = dig.Snapshot()
	s.Pairs = pairs.Snapshot()
	s.Hot = hot.Snapshot()
	s.Last = nil
	s.Prev = 0
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Allocs += other.Allocs
	s.Frees += other.Frees
	return nil
}

// Merge folds other into s; see SketchStrideSnapshot.Merge.
func (s *SketchCountersSnapshot) Merge(other *SketchCountersSnapshot) error {
	sites, err := sketch.RestoreCountMin(s.Sites)
	if err != nil {
		return err
	}
	oSites, err := sketch.RestoreCountMin(other.Sites)
	if err != nil {
		return err
	}
	if err := sites.Merge(oSites); err != nil {
		return err
	}
	hot, err := sketch.RestoreTopK(s.Hot)
	if err != nil {
		return err
	}
	oHot, err := sketch.RestoreTopK(other.Hot)
	if err != nil {
		return err
	}
	if err := hot.Merge(oHot); err != nil {
		return err
	}
	s.Sites = sites.Snapshot()
	s.Hot = hot.Snapshot()
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Allocs += other.Allocs
	s.Frees += other.Frees
	return nil
}
