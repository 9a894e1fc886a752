package tkvlog

import (
	"errors"
	"io"
)

// readChunk is the minimum byte count a Reader pulls from its source per
// refill when the record's declared length is not yet known.
const readChunk = 32 << 10

// Reader decodes a stream of records from an io.Reader, preserving the
// slice decoder's error classification: a source ending mid-record
// surfaces as ErrShort (the torn tail — Offset reports where the intact
// prefix ends, so a recovery can truncate there), while a structurally
// invalid or checksum-failing record surfaces as ErrCorrupt. A source
// ending exactly on a record boundary ends the stream with io.EOF.
//
// Errors are sticky: after any non-nil return, Next keeps returning the
// same error. A Reader buffers at most one record (bounded by MaxRecord,
// since a lying length prefix is rejected before it is trusted).
type Reader struct {
	src io.Reader
	buf []byte // undecoded bytes carried between Next calls
	off int64  // stream offset of buf[0]
	err error  // sticky terminal state (io.EOF, ErrShort, ErrCorrupt, read error)

	srcErr error // deferred source error; surfaced once buf is exhausted
}

// NewReader returns a Reader decoding records from src.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src}
}

// Offset returns the stream offset just past the last successfully
// decoded record: the byte count of the intact prefix. After Next
// returns ErrShort, truncating the source to Offset removes exactly the
// torn tail.
func (r *Reader) Offset() int64 {
	return r.off
}

// Buffered returns the count of bytes past Offset that the Reader has read
// from its source and not decoded. After Next returns ErrShort they are the
// whole torn tail: the source ended inside the record they begin.
func (r *Reader) Buffered() int {
	return len(r.buf)
}

// Next decodes the next record into rec (whose entry slice is reused, as
// with Decode). It returns io.EOF at a clean end of stream, ErrShort if
// the source ends inside a record, ErrCorrupt for a structurally bad
// record, or the source's own read error.
func (r *Reader) Next(rec *Record) error {
	if r.err != nil {
		return r.err
	}
	for {
		n, derr := rec.Decode(r.buf)
		if derr == nil {
			r.consume(n)
			return nil
		}
		if !errors.Is(derr, ErrShort) {
			r.err = derr
			return r.err
		}
		// Short: either the source has more bytes, or this is the tail.
		if r.srcErr != nil {
			if r.srcErr == io.EOF {
				if len(r.buf) == 0 {
					r.err = io.EOF
				} else {
					r.err = derr // torn tail: ErrShort with detail
				}
			} else {
				r.err = r.srcErr
			}
			return r.err
		}
		r.fill()
	}
}

// consume drops n decoded bytes from the front of the carry buffer.
func (r *Reader) consume(n int) {
	m := copy(r.buf, r.buf[n:])
	r.buf = r.buf[:m]
	r.off += int64(n)
}

// fill reads more bytes from the source into the carry buffer: enough to
// complete the pending record when its declared length is already known
// and plausible, else one chunk. Source errors (including io.EOF) are
// deferred into srcErr so bytes read alongside them are still decoded.
func (r *Reader) fill() {
	want := len(r.buf) + readChunk
	if len(r.buf) >= 4 {
		if l := int(le.Uint32(r.buf)); l <= MaxRecord && 4+l > want {
			want = 4 + l
		}
	}
	if cap(r.buf) < want {
		grown := make([]byte, len(r.buf), want)
		copy(grown, r.buf)
		r.buf = grown
	}
	for len(r.buf) < want && r.srcErr == nil {
		n, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+n]
		if err != nil {
			r.srcErr = err
			return
		}
		if n > 0 {
			return // got something; let the decoder retry before blocking again
		}
	}
}
