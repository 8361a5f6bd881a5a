package sequitur

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzRoundTrip drives the full build → encode → decode → expand chain with
// arbitrary byte sequences (mapped to a small alphabet to force heavy rule
// churn) and checks losslessness plus grammar invariants.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("abcbcabcbc"))
	f.Add([]byte("aaaaaaaaaa"))
	f.Add([]byte("abbbabcbb"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{7, 7, 3}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b % 7)
		}
		g := New()
		g.AppendAll(in)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		out := g.Expand()
		if len(in) == 0 {
			if len(out) != 0 {
				t.Fatal("empty input expanded to symbols")
			}
			return
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatal("expand mismatch")
		}
		dec, err := Decode(g.Encode())
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		out2, err := dec.Expand()
		if err != nil {
			t.Fatalf("expand of decoded grammar: %v", err)
		}
		if !reflect.DeepEqual(out2, in) {
			t.Fatal("decode/expand mismatch")
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the grammar decoder: it must reject
// or accept without panicking, and anything accepted must expand or report
// a cycle error.
func FuzzDecode(f *testing.F) {
	g := New()
	g.AppendAll([]uint64{1, 2, 1, 2, 3, 1, 2})
	f.Add(g.Encode())
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		dec.Expand() //nolint:errcheck // must only not panic
	})
}

// FuzzSnapshotResume checks that a checkpoint is invisible: the fuzz bytes
// become a small-alphabet stream, the first byte picks a cut point and
// whether to shuffle the restored digram refs, and the grammar snapshotted
// at the cut, restored and fed the rest must keep every invariant and end
// in exactly the uninterrupted grammar's state: the same Encode bytes and
// the same snapshot.
func FuzzSnapshotResume(f *testing.F) {
	f.Add([]byte{5, 'a', 'b', 'c', 'b', 'c', 'a', 'b', 'c', 'b', 'c'})
	f.Add([]byte{0x83, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a'})
	f.Add(append([]byte{0xff}, bytes.Repeat([]byte{7, 7, 3, 1}, 30)...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ctl, data := data[0], data[1:]
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b % 7)
		}
		cut := int(ctl&0x7f) * len(in) / 0x7f

		full := New()
		full.AppendAll(in)

		g := New()
		g.AppendAll(in[:cut])
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at %d: %v", cut, err)
		}
		if ctl&0x80 != 0 {
			rng := rand.New(rand.NewSource(int64(len(data))))
			rng.Shuffle(len(snap.Digrams), func(i, j int) {
				snap.Digrams[i], snap.Digrams[j] = snap.Digrams[j], snap.Digrams[i]
			})
		}
		restored, err := FromSnapshot(snap)
		if err != nil {
			t.Fatalf("FromSnapshot at %d: %v", cut, err)
		}
		restored.AppendAll(in[cut:])
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("invariants after resume at %d: %v", cut, err)
		}
		if !bytes.Equal(restored.Encode(), full.Encode()) {
			t.Fatalf("resume at %d differs from the uninterrupted grammar", cut)
		}
		want, err := full.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of the uninterrupted grammar: %v", err)
		}
		if got, err := restored.Snapshot(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("resume at %d left different grammar state (err %v)", cut, err)
		}
	})
}
