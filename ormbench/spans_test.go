package main

import (
	"math"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "session", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "d", Start: 35, End: 38, Parent: 1},  // grandchild: a's, not the root's
	}
	self := selfTimes(spans)
	// The root's children cover [10,60) and [90,100): 60 of its 100.
	want := []int64{40, 27, 30, 30, 3}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(0, 25, ivs); got != 3+7+5 {
		t.Errorf("covered = %d, want 15", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestLayerShares(t *testing.T) {
	spans := []span{
		// Two real sessions of trace "x", 100 ns each.
		{Name: "session", Start: 0, End: 100, Parent: -1, Session: "s1"},
		{Name: "session", Start: 0, End: 100, Parent: -1, Session: "s2"},
		// One replay of "x": layer l1 takes 30, l2 takes 20.
		{Name: "replay", Start: 200, End: 260, Parent: -1, Session: "x"},
		{Name: "l1", Start: 200, End: 230, Parent: 2, Session: "x"},
		{Name: "l2", Start: 230, End: 250, Parent: 2, Session: "x"},
		// A root that is neither is ignored.
		{Name: "merge", Start: 300, End: 400, Parent: -1},
	}
	rows := layerShares(spans, "session", "replay", map[string]float64{"x": 2}, "rest")
	want := map[string]float64{"l1": 0.3, "l2": 0.2, "rest": 0.5}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if math.Abs(r.Share-want[r.Layer]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", r.Layer, r.Share, want[r.Layer])
		}
	}
	if rows[len(rows)-1].Layer != "rest" {
		t.Error("the remainder row should come last")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, "")
	tr.end(i)
	if i != -1 || tr.snapshot() != nil {
		t.Error("a nil tracer must be a no-op")
	}
}
