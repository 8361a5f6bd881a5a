package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	jitter := []float64{0, 1, -1, 2, -2, 0.5, -0.5, 1.5, -1.5, 0}
	before := series(100, jitter...)
	for _, c := range []struct {
		name         string
		after        []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster", series(80, jitter...), false, 0.1, "improved"},
		{"same", series(100.5, jitter...), false, 0.1, "within bound"},
		{"slower", series(120, jitter...), false, 0.1, "worse"},
		{"higher is better", series(120, jitter...), true, 0.1, "improved"},
		{"lower throughput", series(80, jitter...), true, 0.1, "worse"},
		{"noisy", series(100, 0, 30, -30, 25, -25, 10, -10, 40, -40, 0), false, 0.1, "unresolved"},
	} {
		got := compareMetric(before, c.after, c.higherBetter, c.bound)
		if !strings.HasPrefix(got.verdict, c.want) {
			t.Errorf("%s: verdict %q, want %q (delta %.3f, won %.2f)", c.name, got.verdict, c.want, got.delta, got.won)
		}
	}
}

// A change that wins fewer than nine pairs in ten is not an improvement,
// however far its median moved.
func TestCompareNeedsNineInTen(t *testing.T) {
	before := series(100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	after := series(90, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20)
	if got := compareMetric(before, after, false, 0.25); got.verdict == "improved" {
		t.Errorf("won %.2f of pairs but judged improved", got.won)
	}
}

func TestPairUpBySeed(t *testing.T) {
	mk := func(seeds ...int64) []*record {
		var out []*record
		for _, s := range seeds {
			out = append(out, &record{Meta: meta{Seed: s}})
		}
		return out
	}
	a, b := pairUp(mk(3, 1, 2), mk(2, 3, 1))
	for i := range a {
		if a[i].Meta.Seed != b[i].Meta.Seed {
			t.Fatalf("pair %d: seeds %d and %d", i, a[i].Meta.Seed, b[i].Meta.Seed)
		}
	}
}

// A file with only traced runs of a workload is read through their
// end-to-end numbers; untraced runs win when a file holds both.
func TestLoadRecordsTracedFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.txt")
	lines := []string{
		"offline-replay seed=1 traced=true",
		`{"workload":"offline-replay","traced":true,"meta":{"seed":1},"metrics":{"whomp.encode_ms":{"value":3}},"end_to_end":{"events_per_s":{"value":90}}}`,
		`{"workload":"daemon-exact","traced":true,"meta":{"seed":1},"end_to_end":{"events_per_s":{"value":80}}}`,
		`{"workload":"daemon-exact","traced":false,"meta":{"seed":1},"metrics":{"events_per_s":{"value":100}}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, traced, err := loadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := values(runs["offline-replay"], "events_per_s"); len(got) != 1 || got[0] != 90 || !traced["offline-replay"] {
		t.Errorf("offline-replay: values %v, traced %v; want the traced end-to-end 90", got, traced["offline-replay"])
	}
	if got := values(runs["daemon-exact"], "events_per_s"); len(got) != 1 || got[0] != 100 || traced["daemon-exact"] {
		t.Errorf("daemon-exact: values %v, traced %v; want the untraced 100", got, traced["daemon-exact"])
	}
}
