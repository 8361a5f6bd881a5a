package serve

// Differential test for a daemon session's pipeline: one OMC whose records
// feed both compressors, checkpointed and restored at a random frame
// boundary, must write exactly the profiles the offline tools build from
// the same stream.

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ormprof/internal/checkpoint"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
)

// adversarialStream draws n events from a small address space so the
// allocator misbehaves in every way the OMC must absorb: allocations that
// overlap live objects, double frees and frees of never-allocated
// addresses, accesses after free and into unmapped memory, and zero sizes.
// A few instructions walk objects with a fixed stride so the stride and
// LEAP profiles have something regular to find.
func adversarialStream(rng *rand.Rand, n int) []trace.Event {
	const (
		base   = 0x10000
		slots  = 48
		slotSz = 32
		instrs = 24
	)
	sizes := []uint32{0, 8, 16, 24, 48, 64, 128}
	var allocated []trace.Addr
	cursor := make(map[trace.InstrID]trace.Addr)
	events := make([]trace.Event, 0, n)
	for t := 0; len(events) < n; t++ {
		e := trace.Event{Time: trace.Time(t)}
		switch op := rng.Intn(100); {
		case op < 15 || len(allocated) == 0:
			e.Kind = trace.EvAlloc
			e.Site = trace.SiteID(rng.Intn(6))
			e.Addr = trace.Addr(base + rng.Intn(slots)*slotSz + rng.Intn(4)*8)
			e.Size = sizes[rng.Intn(len(sizes))]
			allocated = append(allocated, e.Addr)
		case op < 25:
			e.Kind = trace.EvFree
			if rng.Intn(4) == 0 {
				e.Addr = trace.Addr(base + rng.Intn(2*slots*slotSz))
			} else {
				e.Addr = allocated[rng.Intn(len(allocated))]
			}
		default:
			e.Kind = trace.EvAccess
			e.Instr = trace.InstrID(rng.Intn(instrs))
			e.Size = []uint32{0, 1, 4, 8}[rng.Intn(4)]
			e.Store = rng.Intn(3) == 0
			switch {
			case e.Instr < 6: // strided walkers
				a, ok := cursor[e.Instr]
				if !ok || rng.Intn(40) == 0 {
					a = allocated[rng.Intn(len(allocated))]
				}
				e.Addr = a
				cursor[e.Instr] = a + trace.Addr(8*(1+int(e.Instr)%3))
			case rng.Intn(8) == 0:
				e.Addr = trace.Addr(rng.Intn(4 * base))
			default:
				e.Addr = allocated[rng.Intn(len(allocated))] + trace.Addr(rng.Intn(64))
			}
		}
		events = append(events, e)
	}
	return events
}

// randomFrames cuts events into consecutive frames of random sizes.
func randomFrames(rng *rand.Rand, events []trace.Event) [][]trace.Event {
	var frames [][]trace.Event
	for len(events) > 0 {
		n := 1 + rng.Intn(256)
		if n > len(events) {
			n = len(events)
		}
		frames = append(frames, events[:n])
		events = events[n:]
	}
	return frames
}

// offlineProfiles renders the .whomp, .leap and .stride bytes the
// sequential offline tools produce for events.
func offlineProfiles(t *testing.T, workload string, events []trace.Event, sites map[trace.SiteID]string) map[string][]byte {
	t.Helper()
	wp, err := whomp.FromSource(workload, trace.NewSliceSource(events), sites, 1)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := leap.FromSource(workload, trace.NewSliceSource(events), sites, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ideal := stride.NewIdeal()
	if _, err := trace.Drain(trace.NewSliceSource(events), ideal); err != nil {
		t.Fatal(err)
	}
	var w, l, s bytes.Buffer
	if _, err := wp.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.WriteTo(&l); err != nil {
		t.Fatal(err)
	}
	if err := WriteStrideReport(bufio.NewWriter(&s), ideal.StronglyStrided(), stride.FromLEAP(lp)); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{".whomp": w.Bytes(), ".leap": l.Bytes(), ".stride": s.Bytes()}
}

// restore round-trips st through the ORMCKPT encoding and rebuilds the
// pipeline from the decoded state.
func restore(t *testing.T, st *checkpoint.State) *pipeline {
	t.Helper()
	data, err := checkpoint.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode("diff", data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipelineFromState(decoded, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertProfiles compares a pipeline's written artifacts with want.
func assertProfiles(t *testing.T, p *pipeline, want map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	if err := p.writeProfiles(dir); err != nil {
		t.Fatal(err)
	}
	for ext, w := range want {
		got, err := os.ReadFile(filepath.Join(dir, p.workload+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("%s: daemon wrote %d bytes, offline %d; contents differ", ext, len(got), len(w))
		}
	}
}

func TestPipelineMatchesOfflineAcrossResume(t *testing.T) {
	const workload = "diff"
	sites := map[trace.SiteID]string{0: "a", 1: "b", 2: "c", 3: "d", 4: "e", 5: "f"}
	rng := rand.New(rand.NewSource(20041))
	for i := 0; i < 24; i++ {
		events := adversarialStream(rng, 200+rng.Intn(3000))
		frames := randomFrames(rng, events)
		cut := rng.Intn(len(frames) + 1)
		parentShaped := i%4 == 3

		p := newPipeline(workload, sites, 0, nil, sessionSeed(workload), false, false)
		cutEvents := 0
		for _, f := range frames[:cut] {
			p.applyFrame(f)
			cutEvents += len(f)
		}
		st, err := p.state(workload)
		if err != nil {
			t.Fatal(err)
		}
		if st.WhompOMC == nil || st.LeapOMC != nil {
			t.Fatalf("stream %d: new checkpoint has WhompOMC=%v LeapOMC=%v, want one OMC",
				i, st.WhompOMC != nil, st.LeapOMC != nil)
		}
		if parentShaped {
			// A checkpoint from the two-OMC layout also carried a LEAP-side
			// OMC translated from the same events; restore must ignore it.
			o := omc.New(sites)
			cdc := profiler.NewCDC(o, &profiler.Collector{})
			for _, e := range events[:cutEvents] {
				cdc.Emit(e)
			}
			if st.LeapOMC, err = o.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}

		p2 := restore(t, st)
		for _, f := range frames[cut:] {
			p2.applyFrame(f)
		}
		if p2.eventsApplied != uint64(len(events)) || p2.framesApplied != uint64(len(frames)) {
			t.Fatalf("stream %d: cursor %d frames/%d events, want %d/%d",
				i, p2.framesApplied, p2.eventsApplied, len(frames), len(events))
		}
		if st2, err := p2.state(workload); err != nil {
			t.Fatal(err)
		} else if st2.LeapOMC != nil {
			t.Fatalf("stream %d: checkpoint after restore still carries LeapOMC", i)
		}
		assertProfiles(t, p2, offlineProfiles(t, workload, events, sites))
		if t.Failed() {
			t.Fatalf("stream %d (%d events, %d frames, cut %d, parent-shaped %v) diverged",
				i, len(events), len(frames), cut, parentShaped)
		}
	}
}
