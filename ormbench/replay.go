package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"ormprof/internal/atomicfile"
	"ormprof/internal/checkpoint"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
)

// checkpointEvery is the daemon's default frame cadence (serve.Config).
const checkpointEvery = 32

// layerStats is what one trace's replay measured.
type layerStats struct {
	name   string
	events int
	bytes  int64
	// calls holds every timed call's duration in ms, by span name.
	calls map[string][]float64
	// omcs is how many OMCs translated the stream (one per profiler,
	// as in the tools and in the daemon's pipeline).
	omcs                 int
	translated, unmapped uint64
	// Footprints are peaks, sampled at frame boundaries: one OMC, the
	// WHOMP SCC, the whole exact pipeline, and what the ladder accounts.
	omcFoot, whompFoot   int64
	pipeFoot, governFoot int64
	rules, symbols       int
	ckptBytes            []float64
}

func newLayerStats(in *input) *layerStats {
	return &layerStats{name: in.name, events: in.events, bytes: in.bytes, calls: make(map[string][]float64)}
}

// timed runs f under a span and records its duration.
func (ls *layerStats) timed(b *bench, name string, parent int, f func() error) error {
	sp := b.tr.begin(name, parent, ls.name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	b.tr.end(sp)
	ls.calls[name] = append(ls.calls[name], float64(d)/1e6)
	return err
}

func (ls *layerStats) totalMS(name string) float64 {
	var t float64
	for _, d := range ls.calls[name] {
		t += d
	}
	return t
}

// exactPipeline is one exact session's profiling state, built from the
// same constructors serve's per-session pipeline uses: a WHOMP and a LEAP
// pipeline, each behind its own OMC, plus the lossless stride profiler.
// The replay drives each component over a whole chunk at a time, so every
// layer gets its own span; the components are independent, so the result
// is the one per-event interleaving gives.
type exactPipeline struct {
	wOMC, lOMC   *omc.OMC
	wCDC, lCDC   *profiler.CDC
	wRecs, lRecs profiler.Collector
	wSCC         *whomp.SCC
	lSCC         *leap.SCC
	ideal        *stride.Ideal
	// keep retains the WHOMP records for the parallel-SCC pass.
	keep []profiler.Record
}

func newExactPipeline(sites map[trace.SiteID]string) *exactPipeline {
	p := &exactPipeline{
		wOMC:  omc.New(sites),
		wSCC:  whomp.NewSCC(),
		lOMC:  omc.New(sites),
		lSCC:  leap.NewSCC(0),
		ideal: stride.NewIdeal(),
	}
	p.wCDC = profiler.NewCDC(p.wOMC, &p.wRecs)
	p.lCDC = profiler.NewCDC(p.lOMC, &p.lRecs)
	return p
}

// Emit and Footprint make the pipeline a govern.Mode, so a ladder can
// account and snapshot it as the daemon's does.
func (p *exactPipeline) Emit(e trace.Event) { p.apply(nil, nil, -1, []trace.Event{e}, false) }

func (p *exactPipeline) Footprint() int64 {
	return p.wOMC.Footprint() + p.wSCC.Footprint() + p.lOMC.Footprint() + p.lSCC.Footprint() + p.ideal.Footprint()
}

// apply feeds one chunk of events through every component.
func (p *exactPipeline) apply(b *bench, ls *layerStats, root int, events []trace.Event, keep bool) {
	run := func(name string, f func()) {
		if ls == nil {
			f()
			return
		}
		_ = ls.timed(b, name, root, func() error { f(); return nil })
	}
	run("omc.translate", func() {
		for _, e := range events {
			p.wCDC.Emit(e)
			p.lCDC.Emit(e)
		}
	})
	if keep {
		p.keep = append(p.keep, p.wRecs.Records...)
	}
	run("whomp.consume", func() {
		for _, r := range p.wRecs.Records {
			p.wSCC.Consume(r)
		}
	})
	run("leap.consume", func() {
		for _, r := range p.lRecs.Records {
			p.lSCC.Consume(r)
		}
	})
	run("stride.emit", func() {
		for _, e := range events {
			p.ideal.Emit(e)
		}
	})
	p.wRecs.Records = p.wRecs.Records[:0]
	p.lRecs.Records = p.lRecs.Records[:0]
	if ls != nil {
		ls.omcFoot = max(ls.omcFoot, p.wOMC.Footprint())
		ls.whompFoot = max(ls.whompFoot, p.wSCC.Footprint())
		ls.pipeFoot = max(ls.pipeFoot, p.Footprint())
	}
}

// finish builds and encodes the three profiles as the daemon's session
// end does, returning their hashes.
func (p *exactPipeline) finish(b *bench, ls *layerStats, root int) (map[string][32]byte, error) {
	sums := make(map[string][32]byte)
	var wp *whomp.Profile
	var lp *leap.Profile
	var buf bytes.Buffer
	_ = ls.timed(b, "whomp.build", root, func() error {
		p.wCDC.Finish()
		p.lCDC.Finish()
		wp = &whomp.Profile{Workload: ls.name, Records: p.wSCC.Records(), Grammars: p.wSCC.Grammars(), Objects: whomp.FromOMC(p.wOMC)}
		return nil
	})
	if err := ls.timed(b, "whomp.encode", root, func() error { _, err := wp.WriteTo(&buf); return err }); err != nil {
		return nil, err
	}
	sums[".whomp"] = sha256.Sum256(buf.Bytes())
	buf.Reset()
	_ = ls.timed(b, "leap.build", root, func() error { lp = p.lSCC.BuildProfile(ls.name); return nil })
	if err := ls.timed(b, "leap.encode", root, func() error { _, err := lp.WriteTo(&buf); return err }); err != nil {
		return nil, err
	}
	sums[".leap"] = sha256.Sum256(buf.Bytes())
	buf.Reset()
	if err := ls.timed(b, "stride.report", root, func() error {
		return serve.WriteStrideReport(bufio.NewWriter(&buf), p.ideal.StronglyStrided(), stride.FromLEAP(lp))
	}); err != nil {
		return nil, err
	}
	sums[".stride"] = sha256.Sum256(buf.Bytes())

	ls.omcs = 2
	ls.translated, ls.unmapped = p.wOMC.Stats()
	t2, u2 := p.lOMC.Stats()
	ls.translated += t2
	ls.unmapped += u2
	for _, g := range p.wSCC.Grammars() {
		ls.rules += g.NumRules()
		ls.symbols += g.Symbols()
	}
	return sums, nil
}

// checkReplay requires the replay to reproduce the session outputs, which
// shows it ran the same computation the timed sessions did.
func (b *bench) checkReplay(name string, got map[string][32]byte) {
	if want, ok := b.refs[name]; ok {
		for _, ext := range diffArtifacts(got, want) {
			b.failf("replay %s: %s%s differs from the offline reference", name, name, ext)
		}
	}
}

// replayOffline replays one job's work layer by layer: the file decode,
// both translations, the sequential and the parallel WHOMP SCC, LEAP,
// stride and the encoders.
func replayOffline(b *bench, in *input) (*layerStats, error) {
	ls := newLayerStats(in)
	root := b.tr.begin("replay", -1, in.name)
	defer b.tr.end(root)
	f, err := os.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f)
	if err != nil {
		return nil, err
	}
	p := newExactPipeline(r.Sites())
	chunk := make([]trace.Event, 0, frameEvents)
	for eof := false; !eof; {
		chunk = chunk[:0]
		err := ls.timed(b, "tracefmt.decode", root, func() error {
			for len(chunk) < frameEvents {
				e, err := r.Next()
				if err == io.EOF {
					eof = true
					return nil
				}
				if err != nil {
					return err
				}
				chunk = append(chunk, e)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.apply(b, ls, root, chunk, true)
	}
	if err := ls.timed(b, "whomp.parallel", root, func() error {
		psc := whomp.NewParallelSCC()
		for _, rec := range p.keep {
			psc.Consume(rec)
		}
		psc.Finish()
		return psc.Err()
	}); err != nil {
		return nil, err
	}
	p.keep = nil
	sums, err := p.finish(b, ls, root)
	if err != nil {
		return nil, err
	}
	b.checkReplay(in.name, sums)
	return ls, nil
}

// sessionSeed mirrors the daemon's per-session ladder seed (FNV-1a of the
// session ID).
func sessionSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// ckpt takes one checkpoint the way the daemon does — snapshot every
// component, encode, write atomically with fsync — with a span per step.
// checkpoint.Save is exactly Encode followed by atomicfile.Write; calling
// the two halves separately times the encode without doing it twice.
func (ls *layerStats) ckpt(b *bench, root int, path string, state func() (*checkpoint.State, error)) error {
	var st *checkpoint.State
	if err := ls.timed(b, "checkpoint.snapshot", root, func() (err error) {
		st, err = state()
		return err
	}); err != nil {
		return err
	}
	var data []byte
	if err := ls.timed(b, "checkpoint.encode", root, func() (err error) {
		data, err = checkpoint.Encode(st)
		return err
	}); err != nil {
		return err
	}
	ls.ckptBytes = append(ls.ckptBytes, float64(len(data)))
	return ls.timed(b, "checkpoint.write", root, func() error { return atomicfile.Write(path, data) })
}

// replaySession replays one daemon session's frames: decode each frame,
// apply it, checkpoint every 32 frames, then finish and save the final
// state. apply and state are the session kind's pipeline.
func replaySession(b *bench, in *input, ls *layerStats, root int,
	apply func(events []trace.Event), state func(frames, events uint64) (*checkpoint.State, error)) error {
	dir := filepath.Join(b.runDir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	id := "replay-" + in.name
	var events []trace.Event
	var applied, acked, nEvents uint64
	for i, f := range in.frames {
		if err := ls.timed(b, "tracefmt.decode", root, func() (err error) {
			events, err = tracefmt.DecodeFrameInto(events[:0], f)
			return err
		}); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		apply(events)
		applied++
		nEvents += uint64(len(events))
		if applied-acked >= checkpointEvery {
			if err := ls.ckpt(b, root, checkpoint.PathFor(dir, id), func() (*checkpoint.State, error) {
				return state(applied, nEvents)
			}); err != nil {
				return err
			}
			acked = applied
		}
	}
	return nil
}

// replayExactSession replays one exact daemon session.
func replayExactSession(b *bench, in *input) (*layerStats, error) {
	ls := newLayerStats(in)
	root := b.tr.begin("replay", -1, in.name)
	defer b.tr.end(root)
	id := "replay-" + in.name
	p := newExactPipeline(in.sites)
	lad := govern.NewLadder(govern.Config{Seed: sessionSeed(id), Full: func() govern.Mode { return p }})
	state := func(frames, events uint64) (*checkpoint.State, error) {
		st := &checkpoint.State{
			SessionID: id, Workload: in.name, Sites: checkpoint.SortSites(in.sites),
			FramesApplied: frames, EventsApplied: events, Ladder: lad.Snapshot(),
		}
		var err error
		if st.WhompOMC, err = p.wOMC.Snapshot(); err != nil {
			return nil, err
		}
		if st.Whomp, err = p.wSCC.Snapshot(); err != nil {
			return nil, err
		}
		if st.LeapOMC, err = p.lOMC.Snapshot(); err != nil {
			return nil, err
		}
		st.Leap = p.lSCC.Snapshot()
		st.Stride = p.ideal.Snapshot()
		return st, nil
	}
	if err := replaySession(b, in, ls, root, func(events []trace.Event) { p.apply(b, ls, root, events, false) }, state); err != nil {
		return nil, err
	}
	sums, err := p.finish(b, ls, root)
	if err != nil {
		return nil, err
	}
	b.checkReplay(in.name, sums)
	ls.governFoot = ls.pipeFoot // the unbudgeted ladder accounts exactly this
	final := checkpoint.FinalPathFor(filepath.Join(b.runDir, "replay"), id)
	if err := ls.ckpt(b, root, final, func() (*checkpoint.State, error) {
		return state(uint64(len(in.frames)), uint64(in.events))
	}); err != nil {
		return nil, err
	}
	return ls, nil
}

// replayApproxSession replays one approximate session: the ladder starts
// on the sketch-stride rung, and checkpoints hold only its snapshot.
func replayApproxSession(b *bench, in *input) (*layerStats, error) {
	ls := newLayerStats(in)
	root := b.tr.begin("replay", -1, in.name)
	defer b.tr.end(root)
	id := "replay-" + in.name
	lad := govern.NewLadder(govern.Config{
		Seed:      sessionSeed(id),
		StartRung: govern.RungSketchStride,
		Full:      func() govern.Mode { return newExactPipeline(in.sites) },
	})
	apply := func(events []trace.Event) {
		_ = ls.timed(b, "sketch.emit", root, func() error {
			for _, e := range events {
				lad.Emit(e)
			}
			return nil
		})
	}
	state := func(frames, events uint64) (*checkpoint.State, error) {
		return &checkpoint.State{
			SessionID: id, Workload: in.name, Sites: checkpoint.SortSites(in.sites),
			FramesApplied: frames, EventsApplied: events, Ladder: lad.Snapshot(),
		}, nil
	}
	if err := replaySession(b, in, ls, root, apply, state); err != nil {
		return nil, err
	}
	if err := ls.timed(b, "govern.report", root, func() error { return lad.WriteReport(io.Discard) }); err != nil {
		return nil, err
	}
	final := checkpoint.FinalPathFor(filepath.Join(b.runDir, "replay"), id)
	if err := ls.ckpt(b, root, final, func() (*checkpoint.State, error) {
		return state(uint64(len(in.frames)), uint64(in.events))
	}); err != nil {
		return nil, err
	}
	ls.governFoot = lad.Budget().Peak()
	return ls, nil
}
