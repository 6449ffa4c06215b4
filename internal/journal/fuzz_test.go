package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecordRoundTrip drives the record framing from both directions. The
// input bytes are used (a) as a payload — encoding then decoding must be
// the identity — and (b) as a raw frame candidate — decoding must never
// panic, never accept a frame whose CRC does not match, and whatever it
// does accept must re-encode to exactly the bytes it consumed.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint64(1), byte(KindSession))
	f.Add([]byte(`{"SeedURL":"http://x.example/"}`), uint64(42), byte(KindStats))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}, uint64(0), byte(0))
	// An oversized length prefix must be rejected, not allocated.
	huge := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(huge, uint32(MaxRecordBytes+1))
	f.Add(huge, uint64(7), byte(KindSession))

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, kind byte) {
		// Direction 1: payload → frame → record.
		rec := Record{Seq: seq, Kind: Kind(kind), Payload: data}
		frame := encodeFrame(rec)
		got, n, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("decode(encode(rec)) failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if got.Seq != seq || got.Kind != Kind(kind) || !bytes.Equal(got.Payload, data) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
		}
		// A frame followed by trailing garbage still decodes to the same
		// record (the reader streams frame-by-frame).
		withTail := append(append([]byte(nil), frame...), 0xAA, 0xBB)
		if got2, n2, err := decodeFrame(withTail); err != nil || n2 != len(frame) || !bytes.Equal(got2.Payload, data) {
			t.Fatalf("decode with trailing bytes: n=%d err=%v", n2, err)
		}
		// Any single-byte corruption of the frame must be detected — the
		// CRC covers the body, the length check covers the header.
		if len(frame) > 0 {
			i := int(seq % uint64(len(frame)))
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0x01
			if mutGot, _, err := decodeFrame(mut); err == nil {
				if mutGot.Seq == got.Seq && mutGot.Kind == got.Kind && bytes.Equal(mutGot.Payload, got.Payload) {
					t.Fatalf("flipping byte %d went undetected", i)
				}
			}
		}

		// Direction 2: arbitrary bytes as a frame candidate.
		got3, n3, err := decodeFrame(data)
		if err == nil {
			if n3 <= 0 || n3 > len(data) {
				t.Fatalf("decode of raw bytes consumed impossible %d", n3)
			}
			if re := encodeFrame(got3); !bytes.Equal(re, data[:n3]) {
				t.Fatal("accepted frame does not re-encode canonically")
			}
		}
	})
}

// FuzzBindRun opens a journal directory whose segment bytes the fuzzer
// supplies (split into two segments at split, when it falls inside them)
// and binds it to a run manifest. Neither Open nor BindRun may panic, and
// a bind that succeeds must hold: reopened, with its checkpoint and after
// the checkpoint is deleted (recovery rebuilds it from the segments), the
// journal still accepts the manifest and refuses a different one.
func FuzzBindRun(f *testing.F) {
	// Seeds, in testdata/fuzz/FuzzBindRun, bind this manifest's run record,
	// another manifest's, sessions without a run record, torn tails and
	// a run record split from its sessions by a segment boundary.
	manifest := []byte(`{"seed":42,"triage":true}`)
	f.Fuzz(func(t *testing.T, seg []byte, split uint16) {
		dir := t.TempDir()
		parts := [][]byte{seg}
		if s := int(split); s > 0 && s < len(seg) {
			parts = [][]byte{seg[:s], seg[s:]}
		}
		for i, p := range parts {
			if err := os.WriteFile(filepath.Join(dir, segmentName(i+1)), p, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			return
		}
		bound := j.BindRun(manifest)
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if bound != nil {
			return
		}
		for _, dropCheckpoint := range []bool{false, true} {
			if dropCheckpoint {
				if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
					t.Fatal(err)
				}
			}
			j, err := Open(dir, Options{Sync: SyncNone})
			if err != nil {
				t.Fatalf("reopening a bound journal (checkpoint dropped: %v): %v", dropCheckpoint, err)
			}
			if err := j.BindRun(manifest); err != nil {
				t.Errorf("reopened journal (checkpoint dropped: %v) refuses the manifest it was bound to: %v", dropCheckpoint, err)
			}
			if err := j.BindRun(append(manifest[:len(manifest):len(manifest)], ' ')); err == nil {
				t.Errorf("reopened journal (checkpoint dropped: %v) accepts a different manifest", dropCheckpoint)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
	})
}
