package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer was created; Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session string `json:"session"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, session string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Session: session})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children. Children may overlap one another (a
// parallel stage) or stick out of the parent; only the union of their
// intervals, clipped to the parent, is subtracted, so self time is never
// negative and overlapping children are not counted twice.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// shareRow is one line of the layer-share table.
type shareRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// layerShares attributes session time to layers. Sessions are the spans
// named root; their total duration is the denominator. Every other span
// below a root (real child calls) contributes its self time once; every
// span below a replay root (a span named replay, whose Session names the
// replayed trace) contributes its self time times weight[Session] — the
// number of timed sessions that pushed that trace. The remainder row is
// session time no layer span accounts for.
func layerShares(spans []span, root, replay string, weight map[string]float64, remainder string) []shareRow {
	self := selfTimes(spans)
	top := make([]int, len(spans)) // index of each span's outermost ancestor
	for i := range spans {
		j := i
		for spans[j].Parent >= 0 {
			j = spans[j].Parent
		}
		top[i] = j
	}
	var sessionNs float64
	byLayer := make(map[string]float64)
	for i, s := range spans {
		switch {
		case s.Name == root && s.Parent < 0:
			sessionNs += float64(s.dur())
		case s.Name == replay && s.Parent < 0:
			// A replay root is not session time; its children are.
		case spans[top[i]].Name == root:
			byLayer[s.Name] += float64(self[i])
		case spans[top[i]].Name == replay:
			byLayer[s.Name] += float64(self[i]) * weight[spans[top[i]].Session]
		}
	}
	rows := make([]shareRow, 0, len(byLayer)+1)
	var layers float64
	for name, ns := range byLayer {
		layers += ns
		rows = append(rows, shareRow{Layer: name, SelfMS: ns / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	rows = append(rows, shareRow{Layer: remainder, SelfMS: (sessionNs - layers) / 1e6})
	for i := range rows {
		if sessionNs > 0 {
			rows[i].Share = rows[i].SelfMS * 1e6 / sessionNs
		}
	}
	return rows
}

// printShares renders the layer-share table.
func printShares(w io.Writer, workload string, rows []shareRow) {
	fmt.Fprintf(w, "layer shares of session time, %s:\n", workload)
	fmt.Fprintf(w, "  %-22s %12s %8s\n", "layer", "self ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12.1f %7.1f%%\n", r.Layer, r.SelfMS, 100*r.Share)
	}
}
