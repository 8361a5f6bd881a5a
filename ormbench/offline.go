package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"ormprof/internal/leap"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
)

// offlineReplay is the CLI path: one job profiles one recorded trace the
// way whomp -replay, leap -replay and stridescan -replay do, one decode
// pass per tool, and writes the three profiles to files.
var offlineReplay = &workload{
	name:    "offline-replay",
	toFile:  true,
	start:   func(*bench) error { return nil },
	stop:    func(*bench) {},
	clients: func() int { return 1 },
	session: offlineJob,
	check:   checkOffline,
	replay:  replayOffline,
}

// workers is the -workers setting of the offline jobs: the CLI tools'
// default, GOMAXPROCS (nproc).
func workers() int { return runtime.GOMAXPROCS(0) }

// offlineJob is one job. Its spans wrap the real calls.
func offlineJob(b *bench, s *session) {
	s.sums = make(map[string][32]byte)
	b.timed(s, func() { s.err = runJob(b, s) })
}

func runJob(b *bench, s *session) error {
	ctx := context.Background()
	out := filepath.Join(b.dir, "profiles", s.in.name)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	var name string
	pass := func(span string, sink func(r *tracefmt.Reader) trace.Sink) error {
		sp := b.tr.begin(span, s.span, s.id)
		defer b.tr.end(sp)
		f, err := os.Open(s.in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := tracefmt.NewReader(f)
		if err != nil {
			return err
		}
		name = r.Name()
		_, err = trace.DrainContext(ctx, r, sink(r))
		return err
	}

	var wp *whomp.Profiler
	if err := pass("whomp.pass", func(r *tracefmt.Reader) trace.Sink {
		wp = whomp.NewParallel(r.Sites(), workers())
		return wp
	}); err != nil {
		return fmt.Errorf("whomp pass: %w", err)
	}
	if err := wp.Err(); err != nil {
		return fmt.Errorf("whomp pass: %w", err)
	}
	sp := b.tr.begin("whomp.build", s.span, s.id)
	wprof := wp.Profile(name)
	b.tr.end(sp)
	if err := b.writeOutput(s, out+".whomp", "whomp.encode", func(w io.Writer) error {
		_, err := wprof.WriteTo(w)
		return err
	}); err != nil {
		return err
	}

	var lp *leap.Profiler
	if err := pass("leap.pass", func(r *tracefmt.Reader) trace.Sink {
		lp = leap.NewParallel(r.Sites(), 0, workers())
		return lp
	}); err != nil {
		return fmt.Errorf("leap pass: %w", err)
	}
	if err := lp.Err(); err != nil {
		return fmt.Errorf("leap pass: %w", err)
	}
	sp = b.tr.begin("leap.build", s.span, s.id)
	lprof := lp.Profile(name)
	b.tr.end(sp)
	if err := b.writeOutput(s, out+".leap", "leap.encode", func(w io.Writer) error {
		_, err := lprof.WriteTo(w)
		return err
	}); err != nil {
		return err
	}

	ideal := stride.NewIdeal()
	if err := pass("stride.pass", func(*tracefmt.Reader) trace.Sink { return ideal }); err != nil {
		return fmt.Errorf("stride pass: %w", err)
	}
	return b.writeOutput(s, out+".stride", "stride.report", func(w io.Writer) error {
		est := stride.FromLEAPParallel(lprof, workers())
		return serve.WriteStrideReport(bufio.NewWriter(w), ideal.StronglyStrided(), est)
	})
}

// writeOutput writes one profile file under a span, hashing the bytes on
// the way out so the output check needs no second read.
func (b *bench) writeOutput(s *session, path, span string, write func(io.Writer) error) error {
	sp := b.tr.begin(span, s.span, s.id)
	defer b.tr.end(sp)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(f, h))
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.sums[filepath.Ext(path)] = sum(h)
	return nil
}

func sum(h hash.Hash) (out [32]byte) {
	copy(out[:], h.Sum(nil))
	return out
}

// checkOffline compares every job's profiles with the sequential offline
// reference of the same trace (and, at seed 42, the golden hashes).
func checkOffline(b *bench) {
	refs := b.references(func(in *input) ([]trace.Event, error) { return readTrace(in.path) })
	b.checkSessions(refs)
}
