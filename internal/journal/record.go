// Record framing for the crawl journal: every record is one length-prefixed,
// CRC32-guarded frame, so a reader can always tell a cleanly-ended segment
// from one torn mid-write by a crash.
//
//	frame  := length(uint32 LE) | crc32(uint32 LE) | body
//	body   := kind(1 byte) | seq(uint64 LE) | payload
//
// The CRC covers the body. The sequence number is assigned once, strictly
// increasing across the whole journal, and never reused, so a reader that
// meets a URL twice keeps the record with the higher sequence number.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindSession frames a JSON-encoded crawler.SessionLog — one finished
	// crawl session.
	KindSession Kind = 1
	// Kind number 2 framed a per-run stats record (a JSON farm.Stats with
	// the run's wall-clock time), appended when a run completed; every
	// count in it is rebuilt from the sessions (farm.Tally). Kind numbers 3
	// and 4 framed the per-feature triage-plan and cloak-config records
	// that the run manifest replaced. Journals written before then still
	// hold them; every reader skips kinds it does not ask for, so such
	// journals open and report, and one bound to a run manifest resumes.
	// Never reuse 2, 3 or 4.

	// KindRun frames the run manifest: the canonical bytes of every option
	// that changes session bytes, appended once before the first session
	// (see Journal.BindRun).
	KindRun Kind = 5
)

const (
	headerSize  = 8 // uint32 length + uint32 crc
	bodyMinSize = 9 // kind + seq
	// MaxRecordBytes bounds one record's body. A session log is a few KB to
	// a few hundred KB of JSON; anything past this is a corrupt length
	// prefix, not a record.
	MaxRecordBytes = 64 << 20
)

// Record is one framed journal entry. A Record handed to a Scan callback
// shares its Payload with the scan's read buffer: the Payload is valid only
// during the callback, and a callback that keeps it must copy it.
type Record struct {
	Seq     uint64
	Kind    Kind
	Payload []byte
}

// ErrCorrupt reports a frame that cannot be a torn tail: an impossible
// length, a CRC mismatch, or a truncation inside a sealed segment.
var ErrCorrupt = errors.New("journal: corrupt record")

// errTorn classifies an invalid frame at the tail of the active segment —
// the expected signature of a crash mid-append. Open truncates it away.
var errTorn = errors.New("journal: torn record at segment tail")

// encodeFrame serializes r into a single self-checking frame.
func encodeFrame(r Record) []byte {
	body := len(r.Payload) + bodyMinSize
	frame := make([]byte, headerSize+body)
	frame[headerSize] = byte(r.Kind)
	binary.LittleEndian.PutUint64(frame[headerSize+1:], r.Seq)
	copy(frame[headerSize+bodyMinSize:], r.Payload)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(body))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[headerSize:]))
	return frame
}

// decodeFrame parses one frame from the front of b, returning the record
// and the bytes consumed. An incomplete or invalid frame yields errTorn
// (wrapped with the reason); the caller decides whether that means a
// recoverable tail or corruption.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, fmt.Errorf("%w: %d header bytes of %d", errTorn, len(b), headerSize)
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < bodyMinSize || n > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: impossible body length %d", errTorn, n)
	}
	if len(b) < headerSize+n {
		return Record{}, 0, fmt.Errorf("%w: body %d bytes of %d", errTorn, len(b)-headerSize, n)
	}
	body := b[headerSize : headerSize+n]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc %08x != %08x", errTorn, got, want)
	}
	return Record{
		Seq:     binary.LittleEndian.Uint64(body[1:9]),
		Kind:    Kind(body[0]),
		Payload: append([]byte(nil), body[bodyMinSize:]...),
	}, headerSize + n, nil
}

// readFrame streams one frame from br, where remaining is how many bytes
// the segment file still holds (it bounds the allocation a garbage length
// prefix could cause). io.EOF is returned only at a clean record boundary.
// The frame's body is read into *buf, which is grown when too small and
// reused across the frames of a scan: the returned Payload aliases it and
// is valid only until the next readFrame with the same buf.
func readFrame(br *bufio.Reader, remaining int64, buf *[]byte) (Record, int, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("%w: partial header", errTorn)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < bodyMinSize || n > MaxRecordBytes || int64(n) > remaining-headerSize {
		return Record{}, 0, fmt.Errorf("%w: impossible body length %d", errTorn, n)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return Record{}, 0, fmt.Errorf("%w: body short of %d bytes", errTorn, n)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc %08x != %08x", errTorn, got, want)
	}
	return Record{
		Seq:     binary.LittleEndian.Uint64(body[1:9]),
		Kind:    Kind(body[0]),
		Payload: body[bodyMinSize:],
	}, headerSize + n, nil
}
