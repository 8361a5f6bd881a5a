package tracefmt

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ormprof/internal/trace"
)

func frameEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]trace.Event, n)
	for i := range evs {
		switch rng.Intn(6) {
		case 0:
			evs[i] = trace.Event{Kind: trace.EvAlloc, Site: trace.SiteID(rng.Intn(9)),
				Addr: trace.Addr(rng.Uint64()), Size: uint32(rng.Intn(1 << 16)), Time: trace.Time(i)}
		case 1:
			evs[i] = trace.Event{Kind: trace.EvFree, Addr: trace.Addr(rng.Uint64()), Time: trace.Time(i)}
		default:
			evs[i] = trace.Event{Kind: trace.EvAccess, Instr: trace.InstrID(rng.Intn(64)),
				Addr: trace.Addr(rng.Uint64()), Size: 8, Store: rng.Intn(2) == 0, Time: trace.Time(i)}
		}
	}
	return evs
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 17, DefaultBatch} {
		evs := frameEvents(n, int64(n))
		frame, err := EncodeFrame(evs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := DecodeFrameInto(nil, frame)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Errorf("n=%d: round trip altered events", n)
		}
	}
}

// TestFrameMatchesWriter: a standalone frame is byte-identical to the frame
// a Writer emits for the same batch — one encoding, whether the frame goes
// to a file or over the wire. (The golden v3 fixture therefore pins both.)
func TestFrameMatchesWriter(t *testing.T) {
	evs := frameEvents(300, 77)
	var buf bytes.Buffer
	w := NewWriter(&buf, WithBatch(len(evs)))
	for _, e := range evs {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Skip the header: magic, version, name, site count.
	headerLen := len(Magic) + 1 + 1 + 1
	fromWriter := buf.Bytes()[headerLen:]
	standalone, err := EncodeFrame(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromWriter, standalone) {
		t.Error("standalone frame differs from Writer output for the same batch")
	}
}

func TestFrameEncodeRejects(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Error("EncodeFrame accepted an empty batch")
	}
	if _, err := EncodeFrame([]trace.Event{{Kind: 99}}); err == nil {
		t.Error("EncodeFrame accepted an unknown event kind")
	}
	if _, err := EncodeFrame(make([]trace.Event, MaxBatch+1)); err == nil {
		t.Error("EncodeFrame accepted an oversized batch")
	}
}

// TestFrameDecodeRejectsDamage: every single-byte flip and truncation of a
// valid frame must be rejected with an ErrBadTrace error — the CRC is what
// carries the file format's corruption detection onto the wire.
func TestFrameDecodeRejectsDamage(t *testing.T) {
	frame, err := EncodeFrame(frameEvents(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	for off := range frame {
		bad := append([]byte(nil), frame...)
		bad[off] ^= 0x10
		if _, err := DecodeFrameInto(nil, bad); err == nil {
			t.Fatalf("flip at %d accepted", off)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("flip at %d: error %v does not wrap ErrBadTrace", off, err)
		}
	}
	for _, n := range []int{0, 1, len(FrameMagic), len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeFrameInto(nil, frame[:n]); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation to %d: want ErrBadTrace, got %v", n, err)
		}
	}
	if _, err := DecodeFrameInto(nil, append(append([]byte(nil), frame...), 0)); err == nil {
		t.Error("DecodeFrameInto accepted trailing bytes")
	}
}

// TestDecodeFrameIntoZeroAlloc: decoding frames in a loop into one reused
// buffer — what the ormpd session reader does per wire frame — allocates
// nothing per frame.
func TestDecodeFrameIntoZeroAlloc(t *testing.T) {
	frame, err := EncodeFrame(frameEvents(DefaultBatch, 11))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Event, 0, DefaultBatch)
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = DecodeFrameInto(buf[:0], frame); err != nil || len(buf) != DefaultBatch {
			t.Fatalf("decoded %d events: %v", len(buf), err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeFrameInto into a reused buffer allocated %.1f times per frame, want 0", allocs)
	}
}

// TestReaderSteadyStateZeroAlloc: once its read window has grown to fit,
// a strict Reader delivers frame after frame without allocating.
func TestReaderSteadyStateZeroAlloc(t *testing.T) {
	const batch, frames, runs = 256, 64, 40
	data := encode(t, frameEvents(batch*frames, 12), WithBatch(batch))
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readFrame := func() {
		for i := 0; i < batch; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatalf("event %d: %v", r.Stats().Events, err)
			}
		}
	}
	for i := 0; i < frames-runs-1; i++ {
		readFrame() // grow the window
	}
	if allocs := testing.AllocsPerRun(runs, readFrame); allocs != 0 {
		t.Errorf("strict Reader allocated %.1f times per %d-event frame, want 0", allocs, batch)
	}
}
