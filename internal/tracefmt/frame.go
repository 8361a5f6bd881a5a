package tracefmt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"ormprof/internal/trace"
)

// This file factors the v3 frame envelope into a standalone codec, so a
// frame is a first-class unit independent of the file Writer/Reader: the
// ormpd wire protocol ships each batch of events as exactly one of these
// frames, inheriting the per-frame CRC-32C end-to-end (a frame corrupted
// anywhere between sender and profiler is detected by the same check that
// guards trace files).

// appendEvent encodes one event in the record layout shared by every v3
// producer, updating the caller's delta baselines. It returns false for an
// unencodable event kind.
func appendEvent(frame []byte, e trace.Event, lastAddr *trace.Addr, lastTime *trace.Time) ([]byte, bool) {
	dt := int64(e.Time - *lastTime)
	da := int64(e.Addr - *lastAddr)

	kind := byte(e.Kind)
	if e.Store {
		kind |= storeFlag
	}
	switch e.Kind {
	case trace.EvAccess:
		frame = append(frame, kind)
		frame = appendVarint(frame, dt)
		frame = appendUvarint(frame, uint64(e.Instr))
		frame = appendVarint(frame, da)
		frame = appendUvarint(frame, uint64(e.Size))
	case trace.EvAlloc:
		frame = append(frame, kind)
		frame = appendVarint(frame, dt)
		frame = appendUvarint(frame, uint64(e.Site))
		frame = appendVarint(frame, da)
		frame = appendUvarint(frame, uint64(e.Size))
	case trace.EvFree:
		frame = append(frame, kind)
		frame = appendVarint(frame, dt)
		frame = appendVarint(frame, da)
	default:
		return frame, false
	}
	*lastTime = e.Time
	*lastAddr = e.Addr
	return frame, true
}

// appendFrame appends the complete v3 frame envelope — sync marker, payload
// length, CRC-32C, record count, records — to dst.
func appendFrame(dst []byte, records []byte, count int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(count))
	crc := crc32.Update(crc32.Checksum(cnt[:cn], crcTable), crcTable, records)
	dst = append(dst, FrameMagic...)
	dst = appendUvarint(dst, uint64(cn+len(records)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, cnt[:cn]...)
	dst = append(dst, records...)
	return dst
}

// EncodeFrame encodes a batch of events as one standalone v3 frame. Frames
// are self-contained (delta baselines start at zero), so the result is
// byte-identical to what a Writer with this exact batch would emit. The
// batch must be non-empty, hold at most MaxBatch events, and encode within
// MaxFramePayload bytes.
func EncodeFrame(events []trace.Event) ([]byte, error) {
	if len(events) == 0 {
		return nil, badf("cannot encode an empty frame")
	}
	if len(events) > MaxBatch {
		return nil, badf("frame of %d events exceeds batch limit %d", len(events), MaxBatch)
	}
	var records []byte
	var lastAddr trace.Addr
	var lastTime trace.Time
	for _, e := range events {
		var ok bool
		records, ok = appendEvent(records, e, &lastAddr, &lastTime)
		if !ok {
			return nil, badf("cannot encode event kind %d", e.Kind)
		}
	}
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(len(events)))
	if cn+len(records) > MaxFramePayload {
		return nil, badf("frame payload %d exceeds limit %d", cn+len(records), MaxFramePayload)
	}
	return appendFrame(nil, records, len(events)), nil
}

// errNeedMore reports that a byte window ends before the frame that
// starts it does.
var errNeedMore = errors.New("tracefmt: need more data")

// parseFrame is the one frame-envelope check every decode path runs. It
// validates the frame at the start of w and returns its payload and the
// frame's total length in bytes; errNeedMore when w ends before the frame
// does; or an ErrBadTrace-wrapped error when no valid frame starts at w.
// The payload aliases w. A v3 frame is sync marker, payload length,
// CRC-32C and payload; a legacy v2 frame is a bare length and payload.
//
// A v2 frame carries no checksum, so with structural set its payload must
// also decode record by record (validatePayload) — the stand-in for a
// checksum that the lenient reader needs before it trusts a frame. When
// the checksum or that structure fails, the damaged payload comes back
// with the error, so the caller can count the records it claimed.
func parseFrame(w []byte, ver byte, structural bool) (payload []byte, n int, err error) {
	crcLen := 0
	if ver != VersionNoChecksum {
		if len(w) < len(FrameMagic) {
			return nil, 0, errNeedMore
		}
		if string(w[:len(FrameMagic)]) != FrameMagic {
			return nil, 0, badf("bad frame magic %x", w[:len(FrameMagic)])
		}
		n, crcLen = len(FrameMagic), 4
	}
	pl, k := binary.Uvarint(w[n:])
	switch {
	case k == 0 && len(w)-n < binary.MaxVarintLen64:
		return nil, 0, errNeedMore
	case k <= 0:
		return nil, 0, badf("frame length: varint overflows a 64-bit integer")
	case pl == 0 || pl > MaxFramePayload:
		return nil, 0, badf("frame payload %d outside (0, %d]", pl, MaxFramePayload)
	}
	n += k + crcLen
	if len(w)-n < int(pl) {
		return nil, 0, errNeedMore
	}
	payload = w[n : n+int(pl)]
	if crcLen > 0 {
		want := binary.LittleEndian.Uint32(w[n-crcLen : n])
		if got := crc32.Checksum(payload, crcTable); got != want {
			return payload, 0, badf("frame checksum mismatch: payload %08x, header %08x", got, want)
		}
	} else if structural {
		if err := validatePayload(payload); err != nil {
			return payload, 0, err
		}
	}
	return payload, n + int(pl), nil
}

// DecodeFrameInto decodes one standalone v3 frame produced by EncodeFrame
// (or cut from a v3 trace file), appending its events into dst's capacity:
// a caller decoding frames in a loop (the ormpd session reader, replay
// tools) reuses one buffer across frames by passing the previous result
// re-sliced to [:0], and DecodeFrameInto(nil, data) allocates a fresh one.
// data must hold exactly one frame; the CRC is verified before any record
// is decoded, and every decode error wraps ErrBadTrace. On error the
// returned slice is dst unchanged.
func DecodeFrameInto(dst []trace.Event, data []byte) ([]trace.Event, error) {
	payload, n, err := parseFrame(data, Version, false)
	if err == errNeedMore {
		return dst, badf("frame truncated at %d bytes", len(data))
	}
	if err != nil {
		return dst, err
	}
	if n != len(data) {
		return dst, badf("%d trailing bytes after frame", len(data)-n)
	}
	var d frameDecoder
	if err := d.start(payload); err != nil {
		return dst, err
	}
	events := dst
	base := len(events)
	if cap(events)-base < d.total {
		grown := make([]trace.Event, base, base+d.total)
		copy(grown, events)
		events = grown
	}
	for d.left > 0 {
		e, err := d.next(int64(len(events) - base))
		if err != nil {
			return dst, err
		}
		events = append(events, e)
	}
	return events, nil
}
