package ormprof

// Fault-injection soak: every workload's recorded trace is replayed through
// the production pipeline under a randomized (but seeded, hence
// reproducible) schedule of injected faults — corrupt bytes, truncation,
// field flips, producer panics, worker panics, stalls against deadlines.
// Damaged trace bytes go through a temp file and exactly the calls
// `whomp -replay -lenient` and `leap -replay -lenient` make (TraceFlags.Load,
// Events.Pass, Profile, Err); in-flight faults go through trace.DrainContext,
// the one drain every pass runs on. The contract under test is the
// robustness tentpole: the pipeline never hangs, never lets a panic escape,
// never leaks goroutines, and always yields either a (possibly partial)
// profile or a typed error. With a single corrupted frame, exactly that
// frame's events are lost — asserted via Events.Stats().

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ormprof/internal/cliutil"
	"ormprof/internal/faultinject"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/profiler"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// isTypedFault reports whether err is one of the pipeline's sanctioned
// degraded-mode errors — the "typed error" arm of the soak contract.
func isTypedFault(err error) bool {
	var ce *tracefmt.CorruptionError
	var pe *trace.PanicError
	var we *profiler.WorkerError
	return errors.As(err, &ce) || errors.As(err, &pe) || errors.As(err, &we) ||
		errors.Is(err, tracefmt.ErrBadTrace) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// loadLenient writes (possibly damaged) trace bytes to a file in dir and
// opens it the way `-replay <file> -lenient` does. A header too damaged to
// open is a legitimate outcome for header-offset faults; those cases return
// (nil, err).
func loadLenient(t *testing.T, dir string, data []byte) (*cliutil.Events, error) {
	t.Helper()
	path := filepath.Join(dir, "soak.ormtrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tf := &cliutil.TraceFlags{Replay: path, Lenient: true}
	return tf.Load("", workloads.Config{})
}

// runLenientReplay replays a (possibly damaged) trace file through the
// whomp and leap CLI paths and enforces the soak contract on the outcome.
func runLenientReplay(t *testing.T, dir string, data []byte, totalEvents int64) {
	t.Helper()
	ev, err := loadLenient(t, dir, data)
	if err != nil {
		if !errors.Is(err, tracefmt.ErrBadTrace) {
			t.Fatalf("header error not typed: %v", err)
		}
		return // unreadable header is a clean typed failure
	}
	check := func(prof string, passErr error, records uint64, pipeErr error) {
		t.Helper()
		if passErr != nil && !isTypedFault(passErr) {
			t.Fatalf("%s pass error not typed: %v", prof, passErr)
		}
		if int64(records) > totalEvents {
			t.Fatalf("%s salvaged %d records from %d events", prof, records, totalEvents)
		}
		if pipeErr != nil {
			t.Fatalf("%s pipeline fault on a damaged trace: %v", prof, pipeErr)
		}
		if st := ev.Stats(); st.Events < 0 || st.Events > totalEvents {
			t.Fatalf("reader stats inconsistent: delivered %d of %d", st.Events, totalEvents)
		}
	}
	wlad, _, err := ev.ProfilePass(42, 4, func(w int) govern.Mode { return whomp.NewParallel(ev.Sites, w) })
	wp := wlad.FullMode().(*whomp.Profiler)
	check("whomp", err, wp.Profile(ev.Name).Records, wp.Err())
	llad, _, err := ev.ProfilePass(42, 4, func(w int) govern.Mode { return leap.NewParallel(ev.Sites, 0, w) })
	lp := llad.FullMode().(*leap.Profiler)
	check("leap", err, lp.Profile(ev.Name).Records, lp.Err())
}

func soakWorkloads(t *testing.T) []string {
	if testing.Short() {
		return []string{"linkedlist", "181.mcf"}
	}
	return append(workloads.Names(), "linkedlist")
}

func soakOffsets(rng *rand.Rand, size int64, n int) []int64 {
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = rng.Int63n(size)
	}
	return offs
}

// TestSoakCorruptByte: single flipped bytes at random offsets, including
// inside the header.
func TestSoakCorruptByte(t *testing.T) {
	testutil.LeakCheck(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	nOffsets := 6
	if testing.Short() {
		nOffsets = 2
	}
	for _, name := range soakWorkloads(t) {
		buf, _, encoded := recordWorkload(t, name)
		total := int64(buf.Len())
		for _, off := range soakOffsets(rng, int64(len(encoded)), nOffsets) {
			damaged, err := io.ReadAll(faultinject.CorruptByte(bytes.NewReader(encoded), off, byte(rng.Intn(256))))
			if err != nil {
				t.Fatal(err)
			}
			runLenientReplay(t, dir, damaged, total)
		}
	}
}

// TestSoakTruncation: traces cut off at random points, including inside
// the header and mid-frame.
func TestSoakTruncation(t *testing.T) {
	testutil.LeakCheck(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	nOffsets := 6
	if testing.Short() {
		nOffsets = 2
	}
	for _, name := range soakWorkloads(t) {
		buf, _, encoded := recordWorkload(t, name)
		total := int64(buf.Len())
		for _, cut := range soakOffsets(rng, int64(len(encoded)), nOffsets) {
			damaged, err := io.ReadAll(faultinject.Truncate(bytes.NewReader(encoded), cut))
			if err != nil {
				t.Fatal(err)
			}
			runLenientReplay(t, dir, damaged, total)
		}
	}
}

// TestSoakFieldFlip: decoded events mutated in flight — wrong kinds,
// garbage addresses, zero sizes. The pipeline must absorb them (they are
// semantically wrong but structurally deliverable) without crashing.
func TestSoakFieldFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(3))
	mutations := []func(*trace.Event){
		func(e *trace.Event) { e.Kind = trace.EventKind(250) },
		func(e *trace.Event) { e.Addr = ^trace.Addr(0) },
		func(e *trace.Event) { e.Size = 0 },
		func(e *trace.Event) { e.Kind, e.Size = trace.EvAlloc, 0 },
		func(e *trace.Event) { e.Kind = trace.EvFree },
	}
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		for i, mutate := range mutations {
			n := rng.Int63n(int64(buf.Len()))
			src := faultinject.FlipField(buf.Source(), n, mutate)
			p := whomp.NewParallel(sites, 2)
			_, err := trace.DrainContext(context.Background(), src, p)
			if err != nil && !isTypedFault(err) {
				t.Fatalf("mutation %d: error not typed: %v", i, err)
			}
			p.Profile("soak")
			if err := p.Err(); err != nil && !isTypedFault(err) {
				t.Fatalf("mutation %d: pipeline error not typed: %v", i, err)
			}
		}
	}
}

// TestSoakProducerPanic: the source itself panics mid-stream; DrainContext
// must contain it, keep the delivered count, and leave the profiler able to
// finish the partial profile.
func TestSoakProducerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(4))
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		n := 1 + rng.Int63n(int64(buf.Len())-1)
		src := faultinject.PanicAfter(buf.Source(), n)
		p := leap.NewParallel(sites, 0, 4)
		delivered, err := trace.DrainContext(context.Background(), src, p)
		var pe *trace.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *trace.PanicError", name, err)
		}
		if int64(delivered) != n {
			t.Fatalf("%s: delivered %d events before the panic, want %d", name, delivered, n)
		}
		if prof := p.Profile("soak"); prof == nil {
			t.Fatalf("%s: no partial profile", name)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("%s: pipeline fault after a producer panic: %v", name, err)
		}
	}
}

// TestSoakWorkerPanic: a compression worker crashes on a random record;
// the sharded stage must contain it, finish the surviving shards, and
// report a *WorkerError.
func TestSoakWorkerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(5))
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		records, _ := profiler.TranslateTrace(buf.Events, sites)
		if len(records) < 4 {
			continue
		}
		// Round-robin sharding guarantees worker 0 sees len/4 records, so a
		// crash index drawn from that range always fires.
		crashAt := uint64(rng.Int63n(int64(len(records) / 4)))
		var rr int
		sh := profiler.NewSharded(4, 64, func(r profiler.Record, n int) int {
			rr++
			return rr % n
		}, func(i int) profiler.SCC {
			scc := leap.NewSCC(0)
			if i == 0 {
				return faultinject.PanicSCC(scc, crashAt)
			}
			return scc
		})
		for _, r := range records {
			sh.Consume(r)
		}
		sh.Finish()
		var we *profiler.WorkerError
		if err := sh.Err(); !errors.As(err, &we) {
			t.Fatalf("%s: Err = %v, want *WorkerError", name, err)
		} else if we.Worker != 0 {
			t.Fatalf("%s: crashed worker = %d, want 0", name, we.Worker)
		}
	}
}

// TestSoakStallDeadline: a producer stalls mid-stream against a deadline;
// the drain must notice the overrun at the next event and return
// DeadlineExceeded with the partial profile, promptly.
func TestSoakStallDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(6))
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		n := rng.Int63n(int64(buf.Len()))
		src := faultinject.Stall(buf.Source(), n, 300*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		p := whomp.NewParallel(sites, 2)
		_, err := trace.DrainContext(ctx, src, p)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want DeadlineExceeded", name, err)
		}
		if prof := p.Profile("soak"); prof == nil {
			t.Fatalf("%s: no partial profile", name)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: salvage took %v after a 300ms stall", name, elapsed)
		}
	}
}

// TestSoakSingleFrameLossIsExact pins the headline guarantee at the pipeline
// level: corrupt exactly one frame of a recorded trace and the salvaged
// profile is built from exactly every other frame's events.
func TestSoakSingleFrameLossIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	buf, sites, _ := recordWorkload(t, "linkedlist")
	// Re-encode with a small fixed batch so the trace has many frames.
	const batch = 64
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("exact"), tracefmt.WithBatch(batch))
	tw.SetSites(sites)
	for _, e := range buf.Events {
		tw.Emit(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	encoded := enc.Bytes()
	total := int64(buf.Len())

	// Find the third frame by scanning for the sync marker and corrupt a
	// payload byte well inside it.
	off := 0
	for i := 0; i < 3; i++ {
		idx := bytes.Index(encoded[off+1:], []byte(tracefmt.FrameMagic))
		if idx < 0 {
			t.Fatal("trace has too few frames")
		}
		off += 1 + idx
	}
	damaged := bytes.Clone(encoded)
	damaged[off+16] ^= 0xa5

	ev, err := loadLenient(t, t.TempDir(), damaged)
	if err != nil {
		t.Fatal(err)
	}
	p := whomp.NewParallel(ev.Sites, 4)
	_, serr := ev.Pass(p)
	var ce *tracefmt.CorruptionError
	if !errors.As(serr, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", serr)
	}
	if prof := p.Profile(ev.Name); prof == nil || int64(prof.Records) > total-batch {
		t.Fatalf("salvaged profile missing or built from more than the surviving frames")
	}
	if err := p.Err(); err != nil {
		t.Fatalf("pipeline fault after one lost frame: %v", err)
	}
	st := ev.Stats()
	if st.SkippedFrames != 1 || st.Corruptions != 1 {
		t.Fatalf("SkippedFrames/Corruptions = %d/%d, want 1/1", st.SkippedFrames, st.Corruptions)
	}
	if st.SkippedEvents != batch {
		t.Fatalf("SkippedEvents = %d, want exactly one frame (%d)", st.SkippedEvents, batch)
	}
	if st.Events != total-batch {
		t.Fatalf("delivered %d events, want %d (all but one frame)", st.Events, total-batch)
	}
}
