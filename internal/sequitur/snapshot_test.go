package sequitur

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// streams returns a spread of symbol streams chosen to exercise every
// grammar mechanism: repeats (rule creation), runs of equal symbols (the
// triples fix-up), rule reuse, rule inlining (utility), and plain noise.
func snapshotStreams() map[string][]uint64 {
	rng := rand.New(rand.NewSource(7))
	noise := make([]uint64, 4000)
	for i := range noise {
		noise[i] = uint64(rng.Intn(50))
	}
	runs := make([]uint64, 2000)
	for i := range runs {
		runs[i] = uint64(i / 37 % 3)
	}
	period := make([]uint64, 3000)
	for i := range period {
		period[i] = uint64(i % 17)
	}
	mixed := append(append(append([]uint64{}, period[:800]...), noise[:800]...), runs...)
	return map[string][]uint64{
		"noise":    noise,
		"runs":     runs,
		"periodic": period,
		"mixed":    mixed,
	}
}

// TestSnapshotResumeExact is the load-bearing test for checkpointing: a
// grammar restored from a mid-stream snapshot and fed the rest of the input
// must serialize byte-identically to one that saw the whole stream
// uninterrupted — at every cut point tried.
func TestSnapshotResumeExact(t *testing.T) {
	for name, stream := range snapshotStreams() {
		cuts := []int{0, 1, 2, 3, 10, len(stream) / 3, len(stream) / 2, len(stream) - 1, len(stream)}
		for _, cut := range cuts {
			full := New()
			full.AppendAll(stream)

			g := New()
			g.AppendAll(stream[:cut])
			snap, err := g.Snapshot()
			if err != nil {
				t.Fatalf("%s/%d: Snapshot: %v", name, cut, err)
			}
			restored, err := FromSnapshot(snap)
			if err != nil {
				t.Fatalf("%s/%d: FromSnapshot: %v", name, cut, err)
			}
			restored.AppendAll(stream[cut:])

			if got, want := restored.Encode(), full.Encode(); !bytes.Equal(got, want) {
				t.Errorf("%s/%d: resumed grammar differs from uninterrupted one\nresumed: %s\nfull:    %s",
					name, cut, restored, full)
			}
			if got, want := restored.InputLen(), full.InputLen(); got != want {
				t.Errorf("%s/%d: InputLen = %d, want %d", name, cut, got, want)
			}
			if !reflect.DeepEqual(restored.Expand(), full.Expand()) {
				t.Errorf("%s/%d: expansion differs after resume", name, cut)
			}
		}
	}
}

// TestSnapshotRoundTrip: snapshot → restore → snapshot is a fixed point.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, stream := range snapshotStreams() {
		g := New()
		g.AppendAll(stream)
		s1, err := g.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := FromSnapshot(s1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored grammar invariants: %v", name, err)
		}
		s2, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: snapshot not a fixed point", name)
		}
	}
}

// TestSnapshotIndependent: mutating the grammar after Snapshot must not
// change the snapshot.
func TestSnapshotIndependent(t *testing.T) {
	g := New()
	g.AppendAll([]uint64{1, 2, 1, 2, 3, 1, 2})
	s1, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := *s1
	beforeRules := append([]SnapshotRule(nil), s1.Rules...)
	g.AppendAll([]uint64{9, 9, 9, 9, 1, 2, 1, 2})
	if before.NextID != s1.NextID || before.Input != s1.Input || !reflect.DeepEqual(beforeRules, s1.Rules) {
		t.Error("snapshot aliased live grammar state")
	}
}

// TestFromSnapshotRejectsCorrupt: structurally broken snapshots are typed
// errors, never panics or silently wrong grammars.
func TestFromSnapshotRejectsCorrupt(t *testing.T) {
	mk := func() *Snapshot {
		g := New()
		g.AppendAll([]uint64{1, 2, 1, 2, 1, 2, 3, 4, 3, 4})
		s, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[string]func(*Snapshot){
		"no start rule":     func(s *Snapshot) { s.Rules = s.Rules[1:] },
		"duplicate rule":    func(s *Snapshot) { s.Rules = append(s.Rules, s.Rules[0]) },
		"dangling rule ref": func(s *Snapshot) { s.Rules[0].Body[0] = Sym{Value: 999, IsRule: true} },
		"digram oob pos": func(s *Snapshot) {
			s.Digrams = append(s.Digrams, DigramRef{Rule: 0, Pos: 1 << 20})
		},
		"digram bad rule": func(s *Snapshot) {
			s.Digrams = append(s.Digrams, DigramRef{Rule: 999, Pos: 0})
		},
		"rule above nextID": func(s *Snapshot) { s.NextID = 0 },
	}
	for name, corrupt := range cases {
		s := mk()
		corrupt(s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: FromSnapshot accepted a corrupt snapshot", name)
		}
	}
}

// referenceSnapshot is the original two-pass Snapshot, kept as a test
// oracle: it records every symbol's position in a map, then resolves each
// digram index entry through it and sorts the refs. Snapshot must produce
// exactly what it does.
func referenceSnapshot(g *Grammar) (*Snapshot, error) {
	snap := &Snapshot{
		NextID: g.nextID,
		Input:  g.input,
		Rules:  make([]SnapshotRule, 0, len(g.rules)),
	}
	loc := make(map[*symbol]DigramRef, g.Symbols())
	for _, id := range g.RuleIDs() {
		r := g.rules[id]
		body := make([]Sym, 0, 8)
		i := uint32(0)
		for s := r.first(); !s.guard; s = s.next {
			v, isRule := value(s)
			body = append(body, Sym{Value: v, IsRule: isRule})
			loc[s] = DigramRef{Rule: id, Pos: i}
			i++
		}
		snap.Rules = append(snap.Rules, SnapshotRule{ID: id, Body: body})
	}
	snap.Digrams = make([]DigramRef, 0, len(g.digrams))
	for k, s := range g.digrams {
		ref, ok := loc[s]
		if !ok {
			return nil, fmt.Errorf("sequitur: digram index entry %v points at an unlinked symbol", k)
		}
		if key(s) != k {
			return nil, fmt.Errorf("sequitur: digram index entry %v is stale (symbol now keys %v)", k, key(s))
		}
		snap.Digrams = append(snap.Digrams, ref)
	}
	sort.Slice(snap.Digrams, func(i, j int) bool {
		a, b := snap.Digrams[i], snap.Digrams[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Pos < b.Pos
	})
	return snap, nil
}

// assertSnapshotMatchesReference checks Snapshot against the oracle on g.
func assertSnapshotMatchesReference(t *testing.T, name string, g *Grammar) {
	t.Helper()
	got, err := g.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", name, err)
	}
	want, err := referenceSnapshot(g)
	if err != nil {
		t.Fatalf("%s: referenceSnapshot: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot differs from the reference algorithm", name)
	}
}

// TestSnapshotMatchesReference pins the one-walk Snapshot to the original
// map-plus-sort algorithm: on the mechanism streams, on random
// small-alphabet streams, and at every cut point of a few streams.
func TestSnapshotMatchesReference(t *testing.T) {
	for name, stream := range snapshotStreams() {
		g := New()
		g.AppendAll(stream)
		assertSnapshotMatchesReference(t, name, g)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		stream := make([]uint64, 1+rng.Intn(600))
		alphabet := 2 + rng.Intn(6)
		for j := range stream {
			stream[j] = uint64(rng.Intn(alphabet))
		}
		g := New()
		g.AppendAll(stream)
		assertSnapshotMatchesReference(t, fmt.Sprintf("random/%d", i), g)
	}
	for name, stream := range map[string][]uint64{
		"paper": fromString("abcbcabcbcabcbcabcbc"),
		"runs":  snapshotStreams()["runs"][:300],
		"mixed": snapshotStreams()["mixed"][:400],
	} {
		g := New()
		assertSnapshotMatchesReference(t, name+"/0", g)
		for cut, v := range stream {
			g.Append(v)
			assertSnapshotMatchesReference(t, fmt.Sprintf("%s/%d", name, cut+1), g)
		}
	}
}

// TestFromSnapshotUnsortedDigrams: FromSnapshot must not depend on the
// digram refs arriving in Snapshot's (Rule, Pos) order. A restore from
// shuffled refs re-snapshots equal and continues byte-identically.
func TestFromSnapshotUnsortedDigrams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, stream := range snapshotStreams() {
		cut := len(stream) / 2
		full := New()
		full.AppendAll(stream)

		g := New()
		g.AppendAll(stream[:cut])
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		shuffled := *snap
		shuffled.Digrams = append([]DigramRef(nil), snap.Digrams...)
		rng.Shuffle(len(shuffled.Digrams), func(i, j int) {
			shuffled.Digrams[i], shuffled.Digrams[j] = shuffled.Digrams[j], shuffled.Digrams[i]
		})
		restored, err := FromSnapshot(&shuffled)
		if err != nil {
			t.Fatalf("%s: FromSnapshot of shuffled refs: %v", name, err)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("%s: re-Snapshot: %v", name, err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("%s: restore from shuffled refs re-snapshots differently", name)
		}
		restored.AppendAll(stream[cut:])
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants after resume: %v", name, err)
		}
		if !bytes.Equal(restored.Encode(), full.Encode()) {
			t.Errorf("%s: resume from shuffled refs differs from the uninterrupted grammar", name)
		}
	}
}

// TestSnapshotRejectsBrokenIndex: a digram index entry that no live,
// correctly keyed occurrence accounts for makes Snapshot fail with a
// descriptive error instead of returning a snapshot that is short of it.
func TestSnapshotRejectsBrokenIndex(t *testing.T) {
	build := func() *Grammar {
		g := New()
		g.AppendAll(fromString("abcbcabcbcxyzxyz"))
		return g
	}
	cases := map[string]struct {
		corrupt func(g *Grammar)
		want    string
	}{
		"stale key": {
			corrupt: func(g *Grammar) {
				s := g.start.first()
				g.digrams[digram{a: 1 << 40, b: 1 << 41}] = s
			},
			want: "is stale",
		},
		"unlinked symbol": {
			corrupt: func(g *Grammar) {
				g.digrams[digram{a: 1 << 40, b: 1 << 41}] = &symbol{term: 1 << 40}
			},
			want: "unlinked symbol",
		},
	}
	for name, tc := range cases {
		g := build()
		tc.corrupt(g)
		snap, err := g.Snapshot()
		if err == nil {
			t.Errorf("%s: Snapshot returned %d refs for a %d-entry index, want an error",
				name, len(snap.Digrams), len(g.digrams))
			continue
		}
		if snap != nil {
			t.Errorf("%s: Snapshot returned a snapshot alongside its error", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", name, err, tc.want)
		}
	}
}

// benchGrammar builds a grammar over n random symbols from a 64-letter
// alphabet: a long start rule and many short rules, the shape a WHOMP
// dimension takes on irregular input.
func benchGrammar(n int) *Grammar {
	rng := rand.New(rand.NewSource(4))
	g := New()
	for i := 0; i < n; i++ {
		g.Append(uint64(rng.Intn(64)))
	}
	return g
}

// benchSizes are two grammar sizes a factor of two apart: a linear pass
// roughly doubles its ns/op from one to the next, a quadratic one roughly
// quadruples it.
var benchSizes = []int{1 << 15, 1 << 16}

// Benchmark results land in these so the compiler cannot drop the call.
var (
	benchSnapshot *Snapshot
	benchRestored *Grammar
	benchEncoded  []byte
)

func BenchmarkGrammarSnapshot(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGrammar(n)
		b.Run(fmt.Sprintf("input=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, err := g.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				benchSnapshot = snap
			}
			b.ReportMetric(float64(g.Symbols()), "symbols/op")
		})
	}
}

func BenchmarkGrammarFromSnapshot(b *testing.B) {
	for _, n := range benchSizes {
		snap, err := benchGrammar(n).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("input=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := FromSnapshot(snap)
				if err != nil {
					b.Fatal(err)
				}
				benchRestored = g
			}
		})
	}
}

func BenchmarkGrammarEncode(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGrammar(n)
		b.Run(fmt.Sprintf("input=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEncoded = g.Encode()
			}
			b.ReportMetric(float64(g.EncodedSize()), "bytes/op")
		})
	}
}
