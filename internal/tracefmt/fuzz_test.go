package tracefmt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ormprof/internal/trace"
)

// FuzzReader throws arbitrary bytes at the trace decoder. The invariants:
// it never panics, never allocates unboundedly (the length caps fire before
// any allocation), never yields more events than the input could possibly
// hold, and every failure is an ErrBadTrace (or clean io.EOF).
func FuzzReader(f *testing.F) {
	// Seed with a valid trace...
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("seed"), WithBatch(4))
	w.NameSite(1, "site_one")
	for _, e := range randomEvents(32, 42) {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// ...its truncations and light corruptions...
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	bad := bytes.Clone(valid)
	bad[len(Magic)] = 99 // wrong version
	f.Add(bad)
	// ...and shapes aimed at the length fields.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte(Magic), Version, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("header error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		// Each decoded event consumes at least one payload byte, so the
		// input length bounds the event count.
		max := int64(len(data)) + 1
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("decode error %v does not wrap ErrBadTrace", err)
				}
				break
			}
			if r.Stats().Events > max {
				t.Fatalf("decoded %d events from %d input bytes", r.Stats().Events, len(data))
			}
		}
	})
}

// FuzzReaderResync throws mutated traces at the lenient reader. The
// invariants: it never panics, never loops forever (every scan step either
// consumes input or ends the trace), never yields more events than the
// input could hold, terminates in exactly io.EOF or *CorruptionError, and
// its Stats stay consistent with what was actually delivered.
func FuzzReaderResync(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("seed"), WithBatch(8))
	w.NameSite(1, "site_one")
	for _, e := range randomEvents(64, 42) {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations, single-byte damage at various depths, and injected junk.
	f.Add(valid[:len(valid)*3/4])
	f.Add(valid[:len(valid)/2+3])
	for _, off := range []int{20, 40, len(valid) / 2, len(valid) - 10} {
		bad := bytes.Clone(valid)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	mid := len(valid) / 2
	f.Add(append(append(append([]byte(nil), valid[:mid]...), "JUNKJUNK"...), valid[mid:]...))
	// A legacy v2 trace (and a damaged one) exercise the structural scan.
	if v2, err := os.ReadFile(filepath.Join("testdata", "golden_v2.ormtrace")); err == nil {
		f.Add(v2)
		bad := bytes.Clone(v2)
		bad[len(bad)/2] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add(append([]byte(Magic), Version, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), WithLenient())
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("header error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		max := int64(len(data)) + 1
		var n int64
		for {
			_, err := r.Next()
			if err == nil {
				n++
				if n > max {
					t.Fatalf("decoded %d events from %d input bytes", n, len(data))
				}
				continue
			}
			var ce *CorruptionError
			switch {
			case err == io.EOF:
				if r.Stats().Damaged() {
					t.Fatalf("clean io.EOF but stats report damage: %+v", r.Stats())
				}
			case errors.As(err, &ce):
				if !ce.Stats.Damaged() {
					t.Fatalf("CorruptionError with no recorded corruption: %+v", ce.Stats)
				}
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("CorruptionError does not wrap ErrBadTrace: %v", err)
				}
			default:
				t.Fatalf("lenient terminal error = %v, want io.EOF or *CorruptionError", err)
			}
			st := r.Stats()
			if st.Events != n {
				t.Fatalf("Stats.Events = %d, delivered %d", st.Events, n)
			}
			if st.Frames < 0 || st.Corruptions < 0 || st.SkippedFrames < 0 ||
				st.SkippedEvents < 0 || st.SkippedBytes < 0 {
				t.Fatalf("negative stats: %+v", st)
			}
			if st.SkippedBytes > int64(len(data)) {
				t.Fatalf("SkippedBytes %d exceeds input %d", st.SkippedBytes, len(data))
			}
			// Terminal errors are sticky.
			if _, err2 := r.Next(); err2 != err {
				t.Fatalf("terminal error not sticky: %v then %v", err, err2)
			}
			return
		}
	})
}

// FuzzRoundTrip checks the encoder/decoder pair from the other side:
// any sequence of well-formed events survives a round trip exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(16), uint16(100))
	f.Add(int64(99), uint8(1), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, batch uint8, n uint16) {
		events := randomEvents(int(n%2048), seed)
		var buf bytes.Buffer
		w := NewWriter(&buf, WithBatch(int(batch)%257))
		for _, e := range events {
			w.Emit(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
			}
		}
	})
}

// Damage classes FuzzFrameDecoders applies to a trace.
const (
	damageNone     = iota
	damageFlip     // XOR one byte past the header
	damageTruncate // cut the file short
	damageDrop     // remove one whole frame (leaves a valid trace)
	damageGarbage  // insert junk bytes, sometimes opening with a sync marker
	damageKinds
)

// FuzzFrameDecoders is a differential check between the decode paths that
// share the frame parser: DecodeFrameInto on a frame cut from a file, the
// strict Reader, and the lenient Reader. A random event stream is written
// as frames of random sizes, then damaged. Every intact frame must decode
// through DecodeFrameInto to exactly the events the strict Reader yields
// for it; up to the first damaged frame the strict and lenient Readers
// must deliver identical events; and strict must fail exactly when
// lenient ends in a *CorruptionError.
func FuzzFrameDecoders(f *testing.F) {
	for kind := uint8(0); kind < damageKinds; kind++ {
		f.Add(int64(kind), uint16(300), kind, uint32(97))
		f.Add(int64(kind)+10, uint16(1), kind, uint32(0))
	}
	f.Add(int64(7), uint16(1000), uint8(damageGarbage), uint32(5000))
	f.Add(int64(8), uint16(1000), uint8(damageTruncate), uint32(1<<20))

	f.Fuzz(func(t *testing.T, seed int64, n uint16, kind uint8, pos uint32) {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(int(n%2000)+1, seed)
		header := encode(t, nil, WithName("fuzz"))

		// Frame k holds events[first[k]:first[k+1]] and file bytes
		// [start[k], start[k+1]).
		file := bytes.Clone(header)
		var first, start []int
		for i := 0; i < len(events); {
			m := min(1+rng.Intn(300), len(events)-i)
			frame, err := EncodeFrame(events[i : i+m])
			if err != nil {
				t.Fatal(err)
			}
			first, start = append(first, i), append(start, len(file))
			file = append(file, frame...)
			i += m
		}
		first, start = append(first, len(events)), append(start, len(file))
		nf := len(first) - 1
		frameOf := func(off int) int { // the frame holding byte off
			k := 0
			for k+1 < nf && start[k+1] <= off {
				k++
			}
			return k
		}

		// Apply the damage. want is what a clean reader delivers when the
		// result is still a valid trace; otherwise dmg is the first
		// damaged frame (nf for junk after the last one) and intact lists
		// the frames left whole, by their byte range in the new file.
		body := len(file) - len(header)
		p := len(header) + int(pos%uint32(body+1))
		data, want, dmg := file, events, -1
		// at is where the frame's events sit in the stream a strict
		// reader delivers.
		type span struct{ k, lo, hi, at int }
		var intact []span
		for k := 0; k < nf; k++ {
			intact = append(intact, span{k, start[k], start[k+1], first[k]})
		}
		switch kind % damageKinds {
		case damageFlip:
			p = min(p, len(file)-1)
			data = bytes.Clone(file)
			data[p] ^= byte(1 + rng.Intn(255))
			dmg = frameOf(p)
			intact = append(intact[:dmg:dmg], intact[dmg+1:]...)
		case damageTruncate:
			data = file[:p]
			k := frameOf(p)
			if start[k] == p || p == len(file) {
				want = events[:first[k]]
				if p == len(file) {
					want = events
				}
			} else {
				dmg = k
			}
			if p < len(file) {
				intact = intact[:k]
			}
		case damageDrop:
			k := frameOf(p)
			data = append(bytes.Clone(file[:start[k]]), file[start[k+1]:]...)
			want = append(events[:first[k]:first[k]], events[first[k+1]:]...)
			shift, lost := start[k+1]-start[k], first[k+1]-first[k]
			for i := k + 1; i < nf; i++ {
				intact[i].lo -= shift
				intact[i].hi -= shift
				intact[i].at -= lost
			}
			intact = append(intact[:k:k], intact[k+1:]...)
		case damageGarbage:
			junk := make([]byte, 1+rng.Intn(40))
			rng.Read(junk)
			if rng.Intn(2) == 0 {
				copy(junk, FrameMagic)
			}
			data = append(append(bytes.Clone(file[:p]), junk...), file[p:]...)
			dmg = nf
			if p < len(file) {
				dmg = frameOf(p)
			}
			cut := dmg // frames >= cut are shifted by the junk
			if dmg < nf && start[dmg] != p {
				intact = append(intact[:dmg:dmg], intact[dmg+1:]...)
			} else {
				cut = dmg - 1
			}
			for i := range intact {
				if intact[i].k > cut {
					intact[i].lo += len(junk)
					intact[i].hi += len(junk)
				}
			}
		}

		strict, serr := readAll(t, data)
		lenient, lerr := readAll(t, data, WithLenient())
		var ce *CorruptionError
		if (serr == nil) != !errors.As(lerr, &ce) {
			t.Fatalf("strict error %v, lenient error %v: strict must fail exactly when lenient reports corruption", serr, lerr)
		}
		if serr != nil && !errors.Is(serr, ErrBadTrace) {
			t.Fatalf("strict error %v does not wrap ErrBadTrace", serr)
		}
		if lerr != nil && ce == nil {
			t.Fatalf("lenient error %v is not a *CorruptionError", lerr)
		}
		if dmg < 0 {
			if serr != nil || !eventsEqual(strict, want) || !eventsEqual(lenient, want) {
				t.Fatalf("undamaged trace: strict %d events (%v), lenient %d (%v), want %d",
					len(strict), serr, len(lenient), lerr, len(want))
			}
		} else {
			if serr == nil {
				t.Fatalf("damage in frame %d not detected by the strict reader", dmg)
			}
			if !eventsEqual(strict, events[:first[dmg]]) {
				t.Fatalf("strict delivered %d events before frame %d, want %d", len(strict), dmg, first[dmg])
			}
			if len(lenient) < len(strict) || !eventsEqual(lenient[:len(strict)], strict) {
				t.Fatalf("lenient diverges from strict before damaged frame %d", dmg)
			}
		}

		// Every intact frame cut from the file decodes to its own events,
		// through one reused buffer; the frames ahead of the damage are
		// exactly what the strict reader yielded for them.
		var buf []trace.Event
		for _, s := range intact {
			var err error
			buf, err = DecodeFrameInto(buf[:0], data[s.lo:s.hi])
			if err != nil {
				t.Fatalf("intact frame %d: %v", s.k, err)
			}
			if !eventsEqual(buf, events[first[s.k]:first[s.k+1]]) {
				t.Fatalf("intact frame %d decodes to other events", s.k)
			}
			if end := s.at + len(buf); end <= len(strict) && !eventsEqual(buf, strict[s.at:end]) {
				t.Fatalf("intact frame %d: DecodeFrameInto and the strict reader disagree", s.k)
			}
		}
	})
}

// readAll drains a Reader over data, returning the events it delivered and
// its terminal error (nil at a clean end).
func readAll(t *testing.T, data []byte, opts ...ReaderOption) ([]trace.Event, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), opts...)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	events, err := trace.ReadAll(r)
	return events, err
}

func eventsEqual(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
