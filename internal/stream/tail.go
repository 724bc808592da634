package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Tail is the run-log reader: it reads complete frames from an
// io.ReaderAt, verifying every frame's CRC. Online consumers poll Next on
// the log of a run still executing; it reports "no event yet" instead of
// failing when the next frame has not been fully written. Because it
// addresses the file by absolute offset and never buffers a partial
// frame, a Next that returns false is safely retried after the writer's
// next day-barrier flush. Readers of a finished log call ReadEvent, which
// turns "no event yet" into io.EOF or io.ErrUnexpectedEOF.
type Tail struct {
	r       io.ReaderAt
	off     int64
	started bool
	hdr     Header
	base    Base
	scratch []byte

	// Cursor into the current event-batch frame's payload (aliasing
	// scratch). The whole batch frame is CRC-verified before the first
	// sub-record is delivered, so a tail never yields a torn record.
	batch    []byte
	batchOff int
	inBatch  bool
}

// NewTail opens a tail over r. The preamble (magic, header, base snapshot)
// is consumed lazily by the first Next/Header call, so a Tail can be
// opened before the writer has flushed anything.
func NewTail(r io.ReaderAt) *Tail {
	return &Tail{r: r}
}

// errTornPreamble reports a finished log that ends inside its preamble.
var errTornPreamble = fmt.Errorf("%w: log preamble incomplete: %w", ErrFrame, io.ErrUnexpectedEOF)

// openTail opens a log that is no longer being written: the preamble is
// parsed now, and an incomplete one is an error rather than "not yet".
func openTail(r io.ReaderAt) (*Tail, error) {
	t := NewTail(r)
	if err := t.start(); err != nil {
		return nil, err
	}
	if !t.started {
		return nil, errTornPreamble
	}
	return t, nil
}

// tailAt positions a tail at the frame offset off of a log whose header
// and base snapshot are already decoded; seeking replays use it to start
// mid-log.
func tailAt(r io.ReaderAt, off int64, hdr Header, base Base) *Tail {
	return &Tail{r: r, off: off, started: true, hdr: hdr, base: base}
}

// Offset returns the byte offset of the next unread frame. While an
// event-batch frame is being unpacked it points past that frame (the
// batch was verified whole); at day barriers — where online consumers
// read it — the batch is fully drained and the offset is exact.
func (t *Tail) Offset() int64 { return t.off }

// Header returns the run parameters once the preamble is readable.
func (t *Tail) Header() (Header, bool, error) {
	if err := t.start(); err != nil || !t.started {
		return Header{}, false, err
	}
	return t.hdr, true, nil
}

// Base returns the run-start snapshots once the preamble is readable.
func (t *Tail) Base() (Base, bool, error) {
	if err := t.start(); err != nil || !t.started {
		return Base{}, false, err
	}
	return t.base, true, nil
}

// readAt fills buf from the absolute offset, reporting false when the file
// does not (yet) hold that many bytes.
func (t *Tail) readAt(buf []byte, off int64) (bool, error) {
	n, err := t.r.ReadAt(buf, off)
	if n == len(buf) {
		return true, nil
	}
	if err == io.EOF || err == nil {
		return false, nil
	}
	return false, fmt.Errorf("stream: tailing run log: %w", err)
}

// atEOF reports whether no byte of the log remains at off.
func (t *Tail) atEOF(off int64) (bool, error) {
	var b [1]byte
	ok, err := t.readAt(b[:], off)
	return !ok && err == nil, err
}

// frameHeader decodes the header of the frame at off: a kind byte and a
// little-endian u32 payload length, bounded by maxFramePayload. The
// payload and its u32 CRC follow. It returns ok=false when the header is
// not fully present yet.
func (t *Tail) frameHeader(off int64) (k Kind, n uint32, ok bool, err error) {
	var hdr [5]byte
	if ok, err = t.readAt(hdr[:], off); !ok {
		return 0, 0, false, err
	}
	n = binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, 0, false, fmt.Errorf("%w: payload of %d bytes", ErrFrame, n)
	}
	return Kind(hdr[0]), n, true, nil
}

// peekFrame reads the complete frame at off, returning ok=false when it is
// not fully present yet. The payload slice is reused across calls.
func (t *Tail) peekFrame(off int64) (k Kind, payload []byte, next int64, ok bool, err error) {
	var n uint32
	if k, n, ok, err = t.frameHeader(off); !ok {
		return 0, nil, 0, false, err
	}
	next = off + 5 + int64(n) + 4
	if cap(t.scratch) < int(n)+4 {
		// Grow only once the frame's last byte is present, so a corrupt
		// length cannot allocate past the input.
		if eof, err := t.atEOF(next - 1); eof || err != nil {
			return 0, nil, 0, false, err
		}
		t.scratch = make([]byte, int(n)+4)
	}
	buf := t.scratch[:int(n)+4]
	if ok, err = t.readAt(buf, off+5); !ok {
		return 0, nil, 0, false, err
	}
	payload = buf[:n]
	want := binary.LittleEndian.Uint32(buf[n:])
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, nil, 0, false, fmt.Errorf("%w in %s frame", ErrCRC, k)
	}
	return k, payload, next, true, nil
}

// start parses the preamble once enough of it is on disk.
func (t *Tail) start() error {
	if t.started {
		return nil
	}
	magic := make([]byte, len(Magic))
	ok, err := t.readAt(magic, 0)
	if !ok || err != nil {
		return err
	}
	if string(magic) != Magic {
		return ErrBadMagic
	}
	off := int64(len(Magic))
	k, payload, next, ok, err := t.peekFrame(off)
	if !ok || err != nil {
		return err
	}
	if k != KindHeader {
		return fmt.Errorf("%w: first frame is %s, want header", ErrFrame, k)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return err
	}
	off = next
	if k, payload, next, ok, err = t.peekFrame(off); !ok || err != nil {
		return err
	}
	if k != KindBase {
		return fmt.Errorf("%w: second frame is %s, want base", ErrFrame, k)
	}
	base, err := decodeBase(payload)
	if err != nil {
		return err
	}
	t.hdr, t.base = hdr, base
	t.off = next
	t.started = true
	return nil
}

// Next decodes the next complete event into ev, returning false when no
// complete frame is available yet (retry after the writer flushes more).
// Event-batch frames are verified whole before their first sub-record is
// delivered and then unpacked one event per call; segment index frames
// are skipped.
func (t *Tail) Next(ev *Event) (bool, error) {
	if err := t.start(); err != nil || !t.started {
		return false, err
	}
	for {
		if t.inBatch {
			if t.batchOff < len(t.batch) {
				k, payload, next, err := parseRecord(t.batch, t.batchOff)
				if err != nil {
					return false, err
				}
				t.batchOff = next
				if err := decodePayload(k, payload, ev, t.base.Devices, t.base.Strings); err != nil {
					return false, err
				}
				return true, nil
			}
			t.inBatch = false
		}
		k, payload, next, ok, err := t.peekFrame(t.off)
		if !ok || err != nil {
			return false, err
		}
		switch k {
		case KindHeader, KindBase:
			return false, fmt.Errorf("%w: duplicate %s frame", ErrFrame, k)
		case KindSegment:
			if _, err := decodeSegment(payload); err != nil {
				return false, err
			}
			t.off = next
		case KindEventBatch:
			t.batch, t.batchOff, t.inBatch = payload, 0, true
			t.off = next
		default:
			if err := decodePayload(k, payload, ev, t.base.Devices, t.base.Strings); err != nil {
				return false, err
			}
			t.off = next
			return true, nil
		}
	}
}

// ReadEvent decodes the next event of a log that is no longer being
// written. It returns io.EOF when no byte remains at the offset and
// io.ErrUnexpectedEOF when the bytes that remain do not form a complete
// frame (the log of a killed run).
func (t *Tail) ReadEvent(ev *Event) error {
	if ok, err := t.Next(ev); ok || err != nil {
		return err
	}
	if !t.started {
		return errTornPreamble
	}
	eof, err := t.atEOF(t.off)
	switch {
	case err != nil:
		return err
	case eof:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}
