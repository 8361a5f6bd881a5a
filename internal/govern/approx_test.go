package govern

// Property tests for the sketch rungs' error bounds: for each of the nine
// workloads (the paper's seven Table-1 benchmarks plus hotcold and
// chase), a sketch-rung run is compared against an exact oracle that
// applies the identical deterministic sampling rules with unbounded
// maps. The claims under test are the structures' advertised guarantees:
//
//   - count-min: estimate ≥ true, and ≤ true + εN for all but a ≤ δ
//     fraction of keys (ε = e/width, δ = e^−depth);
//   - bloom: no false negatives on seen digrams;
//   - space-saving top-K: true ∈ [Count − Err, Count] for every tracked
//     key, and every key with true count above the N/k bound is tracked;
//   - exact scalars (loads/stores/allocs/frees) match exactly;
//   - the rung's footprint is a constant, independent of trace length;
//   - a mid-stream ORMCKPT-style snapshot (gob) resumes byte-identically.
//
// Everything is deterministic — fixed workload seeds, the fixed package
// sketch seed — so a violation is a real regression, never a flake.

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"ormprof/internal/memsim"
	"ormprof/internal/sketch"
	"ormprof/internal/trace"
	"ormprof/internal/workloads"
)

// nineWorkloads is the paper's Table-1 set plus the two synthetic access
// patterns the acceptance list names.
func nineWorkloads() []string {
	return append(workloads.Names(), "hotcold", "chase")
}

// workloadEvents runs the named workload and returns its event stream.
func workloadEvents(t *testing.T, name string) []trace.Event {
	t.Helper()
	prog, err := workloads.New(name, workloads.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	memsim.Run(prog, trace.SinkFunc(func(e trace.Event) { events = append(events, e) }))
	return events
}

// exactOracle mirrors sketchStrideMode's deterministic sampling rules
// (the direct-mapped last-address table, the digram chain) with unbounded
// exact maps — the ground truth the sketches' bounds are checked against.
type exactOracle struct {
	cfg                          SketchConfig
	last                         []lastSlot
	mask                         uint64
	prev                         uint64
	strides                      map[sketch.Key]uint64
	totals                       map[sketch.Key]uint64
	digrams                      map[sketch.Key]bool
	lines                        map[sketch.Key]uint64
	sites                        map[sketch.Key]uint64
	loads, stores, allocs, frees uint64
}

func newExactOracle() *exactOracle {
	cfg := defaultSketch
	o := &exactOracle{
		cfg:     cfg,
		last:    make([]lastSlot, ceilPow2(cfg.LastSlots)),
		strides: make(map[sketch.Key]uint64),
		totals:  make(map[sketch.Key]uint64),
		digrams: make(map[sketch.Key]bool),
		lines:   make(map[sketch.Key]uint64),
		sites:   make(map[sketch.Key]uint64),
	}
	o.mask = uint64(len(o.last)) - 1
	return o
}

func (o *exactOracle) Emit(e trace.Event) {
	switch e.Kind {
	case trace.EvAlloc:
		o.allocs++
		o.sites[sketch.Key{A: uint64(e.Site)}]++
		return
	case trace.EvFree:
		o.frees++
		return
	}
	if e.Store {
		o.stores++
	} else {
		o.loads++
	}
	instr := uint64(e.Instr)
	addr := uint64(e.Addr)
	if o.prev != 0 {
		o.digrams[sketch.Key{A: o.prev - 1, B: instr}] = true
	}
	o.prev = instr + 1
	slot := &o.last[mix(o.cfg.Seed^instr)&o.mask]
	if slot.instr == instr+1 {
		k := sketch.Key{A: instr, B: addr - slot.addr}
		o.strides[k]++
		o.totals[sketch.Key{A: instr}]++
	}
	slot.instr = instr + 1
	slot.addr = addr
	o.lines[sketch.Key{A: addr >> 6}]++
}

// checkCountMin asserts the ε/δ contract of a count-min sketch against
// the exact counts: never an underestimate, and overestimates beyond εN
// on at most a δ fraction of the queried keys.
func checkCountMin(t *testing.T, label string, cm *sketch.CountMin, exact map[sketch.Key]uint64) {
	t.Helper()
	bound := cm.ErrorBound()
	violations, queries := 0, 0
	for k, want := range exact {
		queries++
		est := cm.Estimate(k)
		if est < want {
			t.Fatalf("%s: estimate(%v) = %d underestimates true count %d", label, k, est, want)
		}
		if float64(est-want) > bound {
			violations++
		}
	}
	if queries == 0 {
		t.Fatalf("%s: oracle saw no keys — workload exercises nothing", label)
	}
	if allowed := math.Max(1, cm.Delta()*float64(queries)); float64(violations) > allowed {
		t.Errorf("%s: %d/%d keys exceed the εN=%.1f bound (δ allows %.1f)",
			label, violations, queries, bound, allowed)
	}
}

// TestSketchStrideErrorBounds drives the sketch-stride rung and the
// exact oracle over every workload and checks each structure's bound.
func TestSketchStrideErrorBounds(t *testing.T) {
	for _, name := range nineWorkloads() {
		t.Run(name, func(t *testing.T) {
			events := workloadEvents(t, name)
			l := NewLadder(Config{Budget: NewBudget(0), StartRung: RungSketchStride})
			oracle := newExactOracle()
			for _, e := range events {
				l.Emit(e)
				oracle.Emit(e)
			}
			m := l.sketchStr
			if m == nil {
				t.Fatalf("ladder not on sketch-stride rung: %s", l.Rung())
			}
			if m.loads != oracle.loads || m.stores != oracle.stores ||
				m.allocs != oracle.allocs || m.frees != oracle.frees {
				t.Errorf("scalars diverged: %d/%d/%d/%d, want %d/%d/%d/%d",
					m.loads, m.stores, m.allocs, m.frees,
					oracle.loads, oracle.stores, oracle.allocs, oracle.frees)
			}

			checkCountMin(t, "stride histogram", m.strC, oracle.strides)
			checkCountMin(t, "instruction totals", m.totC, oracle.totals)

			// Bloom: a seen digram can never test negative.
			for k := range oracle.digrams {
				if !m.dig.Test(k) {
					t.Fatalf("digram bloom false negative on %v", k)
				}
			}

			// Top-K: every tracked key's true count sits inside
			// [Count − Err, Count]; every key heavier than the N/k bound
			// is tracked.
			hotBound := m.hot.ErrorBound()
			tracked := make(map[sketch.Key]bool)
			for _, e := range m.hot.Entries() {
				tracked[e.Key] = true
				want := oracle.lines[e.Key]
				if want > e.Count || want < e.Count-e.Err {
					t.Errorf("hot line %v: true %d outside [%d, %d]",
						e.Key, want, e.Count-e.Err, e.Count)
				}
			}
			for k, n := range oracle.lines {
				if n > hotBound && !tracked[k] {
					t.Errorf("hot line %v with true count %d > bound %d not tracked", k, n, hotBound)
				}
			}
		})
	}
}

// TestSketchCountersErrorBounds: the same contract for the
// sketch-counters rung's per-site allocation sketch and hot-site top-K.
func TestSketchCountersErrorBounds(t *testing.T) {
	for _, name := range nineWorkloads() {
		t.Run(name, func(t *testing.T) {
			events := workloadEvents(t, name)
			l := NewLadder(Config{Budget: NewBudget(0), StartRung: RungSketchCounters})
			oracle := newExactOracle()
			for _, e := range events {
				l.Emit(e)
				oracle.Emit(e)
			}
			m := l.sketchCtr
			if m == nil {
				t.Fatalf("ladder not on sketch-counters rung: %s", l.Rung())
			}
			if m.allocs != oracle.allocs || m.frees != oracle.frees {
				t.Errorf("alloc scalars diverged: %d/%d, want %d/%d",
					m.allocs, m.frees, oracle.allocs, oracle.frees)
			}
			checkCountMin(t, "site counts", m.sites, oracle.sites)
			bound := m.hot.ErrorBound()
			tracked := make(map[sketch.Key]bool)
			for _, e := range m.hot.Entries() {
				tracked[e.Key] = true
				want := oracle.sites[e.Key]
				if want > e.Count || want < e.Count-e.Err {
					t.Errorf("hot site %v: true %d outside [%d, %d]",
						e.Key, want, e.Count-e.Err, e.Count)
				}
			}
			for k, n := range oracle.sites {
				if n > bound && !tracked[k] {
					t.Errorf("hot site %v with true count %d > bound %d not tracked", k, n, bound)
				}
			}
		})
	}
}

// TestSketchFootprintFixed: the sketch rungs' accounted footprint is a
// construction-time constant — the same before any event, after a short
// stream, and after the full stream, for every workload. This is the
// bounded-memory half of the rungs' contract.
func TestSketchFootprintFixed(t *testing.T) {
	var want int64
	for _, name := range nineWorkloads() {
		events := workloadEvents(t, name)
		m := newSketchStrideMode()
		at0 := m.Footprint()
		for _, e := range events[:len(events)/10] {
			m.Emit(e)
		}
		atTenth := m.Footprint()
		for _, e := range events[len(events)/10:] {
			m.Emit(e)
		}
		atEnd := m.Footprint()
		if at0 != atTenth || atTenth != atEnd {
			t.Fatalf("%s: sketch-stride footprint moved: %d -> %d -> %d", name, at0, atTenth, atEnd)
		}
		if want == 0 {
			want = atEnd
		} else if atEnd != want {
			t.Fatalf("%s: footprint %d differs across workloads (want %d)", name, atEnd, want)
		}
	}
}

// TestSketchCheckpointResumeByteIdentical: for every workload, a ladder
// snapshotted mid-stream at the sketch-stride rung, round-tripped
// through gob (the ORMCKPT payload encoding), restored, and fed the rest
// of the stream renders a report byte-identical to the uninterrupted run.
func TestSketchCheckpointResumeByteIdentical(t *testing.T) {
	for _, name := range nineWorkloads() {
		t.Run(name, func(t *testing.T) {
			events := workloadEvents(t, name)
			cut := len(events) / 2

			ref := NewLadder(Config{Budget: NewBudget(0), StartRung: RungSketchStride})
			for _, e := range events {
				ref.Emit(e)
			}

			l := NewLadder(Config{Budget: NewBudget(0), StartRung: RungSketchStride})
			for _, e := range events[:cut] {
				l.Emit(e)
			}
			var enc bytes.Buffer
			if err := gob.NewEncoder(&enc).Encode(l.Snapshot()); err != nil {
				t.Fatal(err)
			}
			snap := new(Snapshot)
			if err := gob.NewDecoder(bytes.NewReader(enc.Bytes())).Decode(snap); err != nil {
				t.Fatal(err)
			}
			resumed, err := RestoreLadder(Config{Budget: NewBudget(0)}, snap, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events[cut:] {
				resumed.Emit(e)
			}

			var want, got bytes.Buffer
			if err := ref.WriteReport(&want); err != nil {
				t.Fatal(err)
			}
			if err := resumed.WriteReport(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("resumed report differs from uninterrupted run")
			}
			if resumed.Err() != nil {
				t.Errorf("approx-start resume reports degradation: %v", resumed.Err())
			}
		})
	}
}
