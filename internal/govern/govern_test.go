package govern

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"ormprof/internal/trace"
)

func TestParseSize(t *testing.T) {
	ok := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"4K", 4 << 10},
		{"4k", 4 << 10},
		{"8M", 8 << 20},
		{"8m", 8 << 20},
		{"2G", 2 << 30},
		{"2g", 2 << 30},
		{" 16K ", 16 << 10},
	}
	for _, c := range ok {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "x", "-1", "-4K", "K", "1.5M", "9999999999999G"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) succeeded, want error", in)
		}
	}
}

func TestFormatSizeRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 1023, 1024, 4096, 1 << 20, 3 << 30, 1<<20 + 1} {
		s := FormatSize(n)
		got, err := ParseSize(strings.TrimSuffix(s, "B"))
		if err != nil {
			t.Fatalf("ParseSize(FormatSize(%d) = %q): %v", n, s, err)
		}
		if got != n {
			t.Errorf("round trip %d -> %q -> %d", n, s, got)
		}
	}
}

func TestBudgetTree(t *testing.T) {
	global := NewBudget(1000)
	a := global.Sub(0)
	b := global.Sub(400)

	a.Add(500)
	if got := global.Used(); got != 500 {
		t.Fatalf("global used = %d, want 500 after child add", got)
	}
	if a.Over() {
		t.Fatal("unlimited child over before global watermark")
	}
	b.Add(300)
	// b is below its own watermark (350) but global is at 800 ≥ 875? No:
	// global watermark is 1000-125 = 875, used 800 — still under.
	if b.Over() {
		t.Fatal("over at 800/1000 global, 300/400 child")
	}
	b.Add(60)
	// b at 360 ≥ its watermark 350.
	if !b.Over() {
		t.Fatal("child not over at 360/400")
	}
	a.Add(100)
	// global at 960 ≥ 875: every child sees Over via the parent chain.
	if !a.Over() {
		t.Fatal("unlimited child not over once global watermark reached")
	}
	a.Add(-700)
	if a.Over() {
		t.Fatal("still over after release")
	}
	if got := global.Peak(); got != 960 {
		t.Fatalf("global peak = %d, want 960", got)
	}
}

// TestBudgetConcurrentSiblings: a daemon shares one parent budget across
// session goroutines, each accounting into its own Sub(0) child while the
// server reads the watermark. The tree must stay exact under that
// concurrency: every child's Used is its own sum, the parent's Used is the
// sum over children, and no peak falls below what it watched.
func TestBudgetConcurrentSiblings(t *testing.T) {
	const (
		children = 8
		rounds   = 2000
	)
	global := NewBudget(1 << 40)
	subs := make([]*Budget, children)
	want := make([]int64, children)
	for i := range subs {
		subs[i] = global.Sub(0)
	}
	var wg sync.WaitGroup
	done, readerDone := make(chan struct{}), make(chan struct{})
	go func() { // the server's side: read the shared watermark throughout
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				_ = global.Over()
				_ = subs[0].WouldOver(1)
			}
		}
	}()
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int64
			for r := 0; r < rounds; r++ {
				grow := int64(8 * (i + 1 + r%5))
				subs[i].Add(grow)
				subs[i].Add(-grow / 2) // every prefix sum stays non-negative
				sum += grow - grow/2
			}
			want[i] = sum
		}(i)
	}
	wg.Wait()
	close(done)
	<-readerDone

	var total, maxChildPeak int64
	for i, b := range subs {
		if got := b.Used(); got != want[i] {
			t.Errorf("child %d used = %d, want %d", i, got, want[i])
		}
		if b.Peak() < b.Used() {
			t.Errorf("child %d peak %d below used %d", i, b.Peak(), b.Used())
		}
		total += want[i]
		maxChildPeak = max(maxChildPeak, b.Peak())
	}
	if got := global.Used(); got != total {
		t.Errorf("parent used = %d, want the children's sum %d", got, total)
	}
	if global.Peak() < global.Used() || global.Peak() < maxChildPeak {
		t.Errorf("parent peak %d below used %d or a child's peak %d", global.Peak(), global.Used(), maxChildPeak)
	}
}

// growMode is a Mode whose footprint grows by a fixed amount per event —
// a deterministic stand-in for an exploding grammar.
type growMode struct {
	perEvent int64
	foot     int64
	events   int
}

func (m *growMode) Emit(trace.Event) { m.events++; m.foot += m.perEvent }
func (m *growMode) Footprint() int64 { return m.foot }

func access(i, addr uint64) trace.Event {
	return trace.Event{Kind: trace.EvAccess, Instr: trace.InstrID(i), Addr: trace.Addr(addr), Size: 8}
}

func alloc(site, addr uint64, size uint32) trace.Event {
	return trace.Event{Kind: trace.EvAlloc, Site: trace.SiteID(site), Addr: trace.Addr(addr), Size: size}
}

func TestLadderStepsDownAndStaysUnderLimit(t *testing.T) {
	const limit = 10_000
	budget := NewBudget(limit)
	l := NewLadder(Config{
		Budget: budget,
		Seed:   1,
		Full:   func() Mode { return &growMode{perEvent: 100} },
	})
	for i, e := range stream(4000) {
		l.Emit(e)
		if u := budget.Used(); u > limit {
			t.Fatalf("accounted usage %d exceeds limit %d at event %d", u, limit, i+1)
		}
	}
	// Both growing full modes (initial and sampled) must have been
	// discarded. The sketch rungs' fixed footprints exceed this tiny
	// budget, so the ladder must have skipped them (never spiking the
	// accounted peak) and bottomed out at stride-only or below.
	if l.Rung().Rank() < RungStrideOnly.Rank() {
		t.Fatalf("rung = %s, want at least stride-only", l.Rung())
	}
	steps := l.Steps()
	if len(steps) < 2 {
		t.Fatalf("got %d steps, want at least 2", len(steps))
	}
	if steps[0].From != RungFull || steps[0].To != RungSampled {
		t.Fatalf("first step %v, want full -> object-sampled", steps[0])
	}
	if budget.Peak() > limit {
		t.Fatalf("accounted peak %d exceeds limit %d", budget.Peak(), limit)
	}
	err := l.Err()
	de, ok := err.(*DegradedError)
	if !ok {
		t.Fatalf("Err() = %T %v, want *DegradedError", err, err)
	}
	if de.Rung != l.Rung() || de.Limit != limit {
		t.Fatalf("DegradedError = %+v, want rung %s limit %d", de, l.Rung(), limit)
	}
	if !strings.Contains(de.Error(), "degraded to") {
		t.Fatalf("error text %q", de.Error())
	}
}

func TestLadderUndegraded(t *testing.T) {
	l := NewLadder(Config{Full: func() Mode { return &growMode{perEvent: 1} }})
	for i := 0; i < 100; i++ {
		l.Emit(access(1, uint64(i)))
	}
	if l.Rung() != RungFull {
		t.Fatalf("rung = %s, want full", l.Rung())
	}
	if err := l.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

// stream returns a deterministic adversarial-ish mixed event stream:
// alloc-heavy so the sampled rung's inner pipeline keeps growing (some
// sites stay in the sampled subset), with irregular access addresses so
// the stride rung keeps minting histogram bins.
func stream(n int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	x := uint64(0x243f6a8885a308d3)
	for i := 0; i < n; i++ {
		x = mix(x + uint64(i))
		if i%2 == 0 {
			evs = append(evs, alloc(x%37, 0x1000+x%100000*64, 64))
		} else {
			evs = append(evs, access(x%31, 0x1000+x%100000*64))
		}
	}
	return evs
}

func runLadder(t *testing.T, evs []trace.Event) (*Ladder, string) {
	t.Helper()
	l := NewLadder(Config{
		Budget: NewBudget(50_000),
		Seed:   42,
		Full:   func() Mode { return &growMode{perEvent: 200} },
	})
	for _, e := range evs {
		l.Emit(e)
	}
	var buf bytes.Buffer
	if err := l.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return l, buf.String()
}

func TestLadderDeterminism(t *testing.T) {
	evs := stream(3000)
	l1, r1 := runLadder(t, evs)
	l2, r2 := runLadder(t, evs)
	if r1 != r2 {
		t.Fatalf("reports differ:\n%s\n---\n%s", r1, r2)
	}
	s1, s2 := l1.Steps(), l2.Steps()
	if len(s1) != len(s2) {
		t.Fatalf("step counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestSiteFilterDropsUnsampledAccesses(t *testing.T) {
	inner := &growMode{perEvent: 1}
	f := newSiteFilter(7, 2, inner)
	var kept, dropped trace.SiteID
	found := 0
	for s := trace.SiteID(0); found < 2 && s < 1000; s++ {
		if f.keep(s) && found == 0 {
			kept, found = s, found+1
		} else if !f.keep(s) {
			dropped = s
			if found == 1 {
				found++
			}
		}
	}
	if found < 2 {
		t.Fatal("could not find both a kept and a dropped site")
	}
	f.Emit(alloc(uint64(kept), 0x1000, 64))
	f.Emit(alloc(uint64(dropped), 0x2000, 64))
	f.Emit(access(1, 0x1010))                             // inside the sampled object
	f.Emit(access(1, 0x2010))                             // inside the dropped object
	f.Emit(access(1, 0x9000))                             // outside everything
	f.Emit(trace.Event{Kind: trace.EvFree, Addr: 0x2000}) // untracked free
	f.Emit(trace.Event{Kind: trace.EvFree, Addr: 0x1000}) // tracked free
	// Forwarded: kept alloc, in-bounds access, tracked free.
	if inner.events != 3 {
		t.Fatalf("inner saw %d events, want 3", inner.events)
	}
}

func TestSnapshotRoundTripPerRung(t *testing.T) {
	evs := stream(12000)
	full := func() Mode { return &growMode{perEvent: 150} }
	for _, target := range []Rung{RungSampled, RungSketchStride, RungSketchCounters, RungStrideOnly, RungCounters} {
		l := NewLadder(Config{Seed: 9, Full: full})
		for l.Rung() != target {
			if !l.ForceStep() {
				t.Fatalf("hit the floor before reaching rung %s", target)
			}
		}
		// Run on at the target rung for a while (the budget is unlimited,
		// so the rung is stable), then snapshot and restore.
		i := 2000
		for j := 0; j < i; j++ {
			l.Emit(evs[j])
		}
		snap := l.Snapshot()
		var fullMode Mode
		if target == RungSampled {
			// The restored inner pipeline: growMode state is its footprint,
			// which the restore re-accounts; a fresh one suffices for the
			// govern-owned state this test exercises.
			fullMode = &growMode{perEvent: 150, foot: l.filter.inner.Footprint()}
		}
		r, err := RestoreLadder(Config{Full: full}, snap, fullMode)
		if err != nil {
			t.Fatalf("rung %s: RestoreLadder: %v", target, err)
		}
		if r.Rung() != target || r.Events() != l.Events() {
			t.Fatalf("rung %s: restored (%s, %d events), want (%s, %d)",
				target, r.Rung(), r.Events(), target, l.Events())
		}
		for j := i; j < len(evs); j++ {
			l.Emit(evs[j])
			r.Emit(evs[j])
		}
		if l.Rung() != r.Rung() || l.Events() != r.Events() {
			t.Fatalf("rung %s: diverged after restore: (%s, %d) vs (%s, %d)",
				target, l.Rung(), l.Events(), r.Rung(), r.Events())
		}
		if !target.FullPipeline() {
			// Below the sampled rung the whole output lives in the ladder:
			// reports must be byte-identical.
			var want, got bytes.Buffer
			if err := l.WriteReport(&want); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteReport(&got); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Fatalf("rung %s: reports differ after restore:\n%s\n---\n%s",
					target, want.String(), got.String())
			}
		} else if len(l.Steps()) != len(r.Steps()) {
			t.Fatalf("rung %s: step history diverged after restore", target)
		}
	}
}

// TestRestoreHonoursRecordedSizes: a new ladder always samples at
// DefaultSampleMod and builds its sketches at the default sizes, but a
// restored ladder keeps whatever its snapshot records, with a zero value
// still selecting the default.
func TestRestoreHonoursRecordedSizes(t *testing.T) {
	full := func() Mode { return &growMode{perEvent: 1} }
	l := NewLadder(Config{Seed: 3, Full: full})
	l.ForceStep()
	snap := l.Snapshot()
	if snap.Rung != RungSampled || snap.SampleMod != DefaultSampleMod {
		t.Fatalf("new ladder: rung %s, sample modulus %d, want %s and %d",
			snap.Rung, snap.SampleMod, RungSampled, DefaultSampleMod)
	}
	for _, tc := range []struct{ recorded, want uint64 }{{2, 2}, {0, DefaultSampleMod}} {
		snap.SampleMod = tc.recorded
		r, err := RestoreLadder(Config{Full: full}, snap, &growMode{perEvent: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.filter.mod != tc.want || r.Snapshot().SampleMod != tc.want {
			t.Errorf("recorded modulus %d: filter samples at %d, re-snapshot records %d, want %d",
				tc.recorded, r.filter.mod, r.Snapshot().SampleMod, tc.want)
		}
	}

	l = NewLadder(Config{StartRung: RungSketchStride, Full: full})
	snap = l.Snapshot()
	if snap.SketchStride.Config != defaultSketch {
		t.Fatalf("new sketch rung built with %+v, want the defaults %+v", snap.SketchStride.Config, defaultSketch)
	}
	snap.SketchStride.Config.Seed = 12345
	r, err := RestoreLadder(Config{Full: full}, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().SketchStride.Config; got.Seed != 12345 || got.Depth != defaultSketch.Depth {
		t.Errorf("restored sketch rung records %+v, want the snapshot's seed 12345 and default sizes", got)
	}
}

func TestRestoreNilSnapshotWrapsFullMode(t *testing.T) {
	m := &growMode{perEvent: 1}
	l, err := RestoreLadder(Config{Full: func() Mode { return &growMode{perEvent: 1} }}, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rung() != RungFull || l.Mode() != Mode(m) {
		t.Fatalf("nil-snapshot restore: rung %s, mode %p (want %p)", l.Rung(), l.Mode(), m)
	}
}

// TestRestoreNilSnapshotIgnoresStartRung is the approx-mode resume
// regression: an -approx session restored from an old checkpoint written
// before ladder snapshots existed (snap == nil, a rebuilt full pipeline
// in hand) must resume at RungFull with that pipeline — honouring
// cfg.StartRung would silently discard the restored state — and must
// keep profiling without panicking.
func TestRestoreNilSnapshotIgnoresStartRung(t *testing.T) {
	m := &growMode{perEvent: 1}
	l, err := RestoreLadder(Config{
		Budget:    NewBudget(0),
		StartRung: RungSketchStride,
		Full:      func() Mode { return &growMode{perEvent: 1} },
	}, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rung() != RungFull || l.Mode() != Mode(m) {
		t.Fatalf("nil-snapshot restore with StartRung set: rung %s, mode %p (want full, %p)", l.Rung(), l.Mode(), m)
	}
	for i := 0; i < 100; i++ {
		l.Emit(trace.Event{Kind: trace.EvAccess, Instr: trace.InstrID(i), Addr: trace.Addr(64 * i)})
	}
	if m.events != 100 {
		t.Fatalf("restored full mode saw %d events, want 100", m.events)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("unbudgeted restored session reports degradation: %v", err)
	}
}

func TestForceStep(t *testing.T) {
	l := NewLadder(Config{Full: func() Mode { return &growMode{} }})
	// With an unlimited budget every rung is affordable, so forced steps
	// walk the full ladder order.
	want := []Rung{RungSampled, RungSketchStride, RungSketchCounters, RungStrideOnly, RungCounters}
	for i, r := range want {
		if !l.ForceStep() {
			t.Fatalf("ForceStep %d returned false", i)
		}
		if l.Rung() != r {
			t.Fatalf("after ForceStep %d: rung = %s, want %s", i, l.Rung(), r)
		}
	}
	if l.ForceStep() {
		t.Fatal("ForceStep at the floor returned true")
	}
}
