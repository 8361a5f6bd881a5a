package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ormprof/internal/memsim"
	"ormprof/internal/serve"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/workloads"
)

// frameEvents is the daemon workloads' frame size, the one
// BenchmarkClusterIngest pushes, and the granularity of the daemon's
// 32-frame checkpoint cadence: a checkpoint every 8192 events. ormpush's
// default batch is tracefmt.DefaultBatch (4096 events), whose frames would
// checkpoint 16× less often per event.
const frameEvents = 256

// input is one generated trace. Only its encoded form stays resident:
// an ORMTRACE file for the offline workload, pre-encoded ORMP/1 frames for
// the daemon workloads.
type input struct {
	name   string
	sites  map[trace.SiteID]string
	events int
	bytes  int64

	path   string            // ORMTRACE file (offline-replay)
	frames serve.SliceFrames // standalone frames (daemon workloads)
}

// generate runs the seven SPEC-like workloads at scale 1 under seed and
// records each one, either to an ORMTRACE file in dir (toFile) or into
// frames. One trace is live at a time, and its events are dropped as soon
// as they are encoded. The result is ordered longest trace first, the
// order clients take sessions in (see runRounds).
func generate(seed int64, dir string, toFile bool) ([]*input, error) {
	var out []*input
	for _, name := range workloads.Names() {
		prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		in := &input{name: name}
		if toFile {
			err = recordFile(in, prog, filepath.Join(dir, name+".ormtrace"))
		} else {
			err = recordFrames(in, prog)
		}
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", name, err)
		}
		out = append(out, in)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].events > out[j].events })
	return out, nil
}

func recordFile(in *input, prog memsim.Program, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := tracefmt.NewWriter(f, tracefmt.WithName(in.name))
	m := memsim.Run(prog, tw)
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	in.path = path
	in.sites = m.StaticSites()
	in.events = int(tw.Events())
	in.bytes = tw.BytesWritten()
	return nil
}

// frameSink cuts the probe stream into standalone frames as it arrives.
type frameSink struct {
	buf    []trace.Event
	frames serve.SliceFrames
	bytes  int64
	events int
	err    error
}

func (s *frameSink) Emit(e trace.Event) {
	s.buf = append(s.buf, e)
	if len(s.buf) == frameEvents {
		s.flush()
	}
}

func (s *frameSink) flush() {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	f, err := tracefmt.EncodeFrame(s.buf)
	if err != nil {
		s.err = err
		return
	}
	s.frames = append(s.frames, f)
	s.bytes += int64(len(f))
	s.events += len(s.buf)
	s.buf = s.buf[:0]
}

func recordFrames(in *input, prog memsim.Program) error {
	fs := &frameSink{buf: make([]trace.Event, 0, frameEvents)}
	m := memsim.Run(prog, fs)
	fs.flush()
	if fs.err != nil {
		return fs.err
	}
	in.frames = fs.frames
	in.sites = m.StaticSites()
	in.events = fs.events
	in.bytes = fs.bytes
	return nil
}

// decodeFrames turns a frame list back into its event stream.
func decodeFrames(frames serve.SliceFrames) ([]trace.Event, error) {
	var events []trace.Event
	var err error
	for i, f := range frames {
		if events, err = tracefmt.DecodeFrameInto(events, f); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return events, nil
}

// readTrace decodes an ORMTRACE file into memory.
func readTrace(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	events, err := trace.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}
