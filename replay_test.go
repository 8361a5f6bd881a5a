package ormprof

// Record/replay contract test: "collect once, profile many" only works if a
// profile built from a replayed trace is byte-identical to one built from
// the live probe stream — for every profiler and every worker count. The
// trace format carries the workload name and site table precisely so this
// holds at the serialized-profile level, not just structurally.

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"ormprof/internal/depend"
	"ormprof/internal/leap"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/phase"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// recordWorkload runs a workload once, capturing both the in-memory buffer
// (live path) and the encoded trace bytes (replay path) from the same run.
func recordWorkload(t testing.TB, name string) (*trace.Buffer, map[trace.SiteID]string, []byte) {
	t.Helper()
	prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName(name))
	m := memsim.Run(prog, trace.Tee(buf, tw))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf, m.StaticSites(), enc.Bytes()
}

func TestReplayProfilesByteIdentical(t *testing.T) {
	for _, name := range []string{"linkedlist", "181.mcf"} {
		t.Run(name, func(t *testing.T) {
			buf, sites, encoded := recordWorkload(t, name)

			for _, workers := range determinismWorkers {
				// Live path: profile the buffered probe stream.
				wpLive := whomp.NewParallel(sites, workers)
				buf.Replay(wpLive)
				var liveW bytes.Buffer
				if _, err := wpLive.Profile(name).WriteTo(&liveW); err != nil {
					t.Fatal(err)
				}

				// Replay path: pull the same events back out of the encoded
				// trace, using only the trace's own metadata.
				r, err := tracefmt.NewReader(bytes.NewReader(encoded))
				if err != nil {
					t.Fatal(err)
				}
				wpReplay, err := whomp.FromSource(r.Name(), r, r.Sites(), workers)
				if err != nil {
					t.Fatal(err)
				}
				var replayW bytes.Buffer
				if _, err := wpReplay.WriteTo(&replayW); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveW.Bytes(), replayW.Bytes()) {
					t.Errorf("workers=%d: replayed WHOMP profile differs from live (%d vs %d bytes)",
						workers, replayW.Len(), liveW.Len())
				}

				lpLive := leap.NewParallel(sites, 0, workers)
				buf.Replay(lpLive)
				var liveL bytes.Buffer
				if _, err := lpLive.Profile(name).WriteTo(&liveL); err != nil {
					t.Fatal(err)
				}
				r2, err := tracefmt.NewReader(bytes.NewReader(encoded))
				if err != nil {
					t.Fatal(err)
				}
				lpReplay, err := leap.FromSource(r2.Name(), r2, r2.Sites(), 0, workers)
				if err != nil {
					t.Fatal(err)
				}
				var replayL bytes.Buffer
				if _, err := lpReplay.WriteTo(&replayL); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveL.Bytes(), replayL.Bytes()) {
					t.Errorf("workers=%d: replayed LEAP profile differs from live (%d vs %d bytes)",
						workers, replayL.Len(), liveL.Len())
				}
			}
		})
	}
}

func TestStreamingConsumersMatchSlicePath(t *testing.T) {
	// Every analysis consumer driven from a replayed trace must agree
	// exactly with the same consumer fed the live buffer.
	buf, sites, encoded := recordWorkload(t, "181.mcf")
	drainBoth := func(live, replay trace.Sink) {
		t.Helper()
		r, err := tracefmt.NewReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.DrainContext(context.Background(), buf.Source(), live); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.DrainContext(context.Background(), r, replay); err != nil {
			t.Fatal(err)
		}
	}

	var colLive, colReplay profiler.Collector
	cdcLive := profiler.NewCDC(omc.New(sites), &colLive)
	cdcReplay := profiler.NewCDC(omc.New(sites), &colReplay)
	drainBoth(cdcLive, cdcReplay)
	cdcLive.Finish()
	cdcReplay.Finish()
	recsLive, recsReplay := colLive.Records, colReplay.Records
	if len(recsLive) != len(recsReplay) {
		t.Fatalf("translate: %d live records, %d replayed", len(recsLive), len(recsReplay))
	}
	for i := range recsLive {
		if recsLive[i] != recsReplay[i] {
			t.Fatalf("record %d: live %+v, replay %+v", i, recsLive[i], recsReplay[i])
		}
	}

	strLive, strReplay := stride.NewIdeal(), stride.NewIdeal()
	drainBoth(strLive, strReplay)
	if !reflect.DeepEqual(strLive.StronglyStrided(), strReplay.StronglyStrided()) {
		t.Error("stride ideal differs between live and replayed streams")
	}

	depLive, depReplay := depend.NewIdeal(), depend.NewIdeal()
	drainBoth(depLive, depReplay)
	if !reflect.DeepEqual(depLive.Result(), depReplay.Result()) {
		t.Error("dependence ideal differs between live and replayed streams")
	}

	conLive, conReplay := depend.NewConnors(0), depend.NewConnors(0)
	drainBoth(conLive, conReplay)
	if !reflect.DeepEqual(conLive.Result(), conReplay.Result()) {
		t.Error("Connors result differs between live and replayed streams")
	}

	cogLive := phase.NewCognizantLEAP(phase.Config{}, 0)
	cogReplay := phase.NewCognizantLEAP(phase.Config{}, 0)
	cogCDCLive := profiler.NewCDC(omc.New(sites), cogLive)
	cogCDCReplay := profiler.NewCDC(omc.New(sites), cogReplay)
	drainBoth(cogCDCLive, cogCDCReplay)
	cogCDCLive.Finish()
	cogCDCReplay.Finish()
	accLive, _ := phase.Quality(cogLive.Profiles("x"))
	accReplay, _ := phase.Quality(cogReplay.Profiles("x"))
	if accLive != accReplay || cogLive.Detector().NumPhases() != cogReplay.Detector().NumPhases() {
		t.Error("phase-cognizant profile differs between live and replayed streams")
	}
}

func TestReplayRoundTripLossless(t *testing.T) {
	// The encoded trace must decode to exactly the probe stream the live
	// run produced: same events, same order, same payloads.
	buf, _, encoded := recordWorkload(t, "197.parser")
	r, err := tracefmt.NewReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= buf.Len() {
			t.Fatalf("trace decoded more than the %d live events", buf.Len())
		}
		if e != buf.Events[i] {
			t.Fatalf("event %d: replayed %+v, live %+v", i, e, buf.Events[i])
		}
		i++
	}
	if i != buf.Len() {
		t.Fatalf("trace decoded %d events, live run produced %d", i, buf.Len())
	}
}
