package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/crawler"
	"repro/internal/sessionio"
)

// FuzzRecordRoundTrip drives the record framing from both directions. The
// input bytes are used (a) as a payload — encoding then decoding must be
// the identity — and (b) as a raw frame candidate — decoding must never
// panic, never accept a frame whose CRC does not match, and whatever it
// does accept must re-encode to exactly the bytes it consumed.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint64(1), byte(KindSession))
	// Kind 2 is the retired per-run stats record: frames of retired kinds
	// still round-trip.
	f.Add([]byte(`{"SeedURL":"http://x.example/"}`), uint64(42), byte(2))
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
// a bind that succeeds must hold: reopened, the journal still accepts the
// manifest and refuses a different one.
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
		j, err = Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("reopening a bound journal: %v", err)
		}
		if err := j.BindRun(manifest); err != nil {
			t.Errorf("reopened journal refuses the manifest it was bound to: %v", err)
		}
		if err := j.BindRun(append(manifest[:len(manifest):len(manifest)], ' ')); err == nil {
			t.Error("reopened journal accepts a different manifest")
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// FuzzSessionURL checks that sessionio.SeedURL, Open's read of each
// session's URL, which walks only the top-level keys of a payload, reads
// the SeedURL that a full decode would. A session log built from the
// input strings (escapes, non-ASCII, empty) reads back its SeedURL; raw
// input bytes never panic it; and wherever json.Unmarshal into
// struct{SeedURL string} accepts an object in which no two keys bind to
// the same field, the two agree.
func FuzzSessionURL(f *testing.F) {
	f.Add("site-1", "http://x.example/login", "PayPal", []byte(`{"SiteID":"a","SeedURL":"http://x.example/"}`))
	f.Add("", "", "", []byte(`null`))
	f.Add("<\"\u2028>", "http://\u00e9.example/?q=\"1\"&a=<b>", "\xff", []byte(`{"seedurl":"lower","Trace":[{"SeedURL":"nested"}]}`))
	f.Add("s", "u", "b", []byte(`{"\u017feedURL":"long s folds to s","x":{"SeedURL":1}}`))
	f.Add("s", "u", "b", []byte(`{"SeedURL":null}`))
	f.Add("s", "u", "b", []byte(`{"SeedURL":7}`))
	f.Add("s", "u", "b", []byte(`{"SeedURL":"a","SEEDURL":"b"}`))
	f.Add("s", "u", "b", []byte(`[{"SeedURL":"in an array"}]`))
	f.Add("s", "u", "b", []byte(`{"SeedURL":"\ud800 lone surrogate", "a":[1,{"b":null}]}`))

	f.Fuzz(func(t *testing.T, siteID, seedURL, brand string, raw []byte) {
		lg := crawler.SessionLog{SiteID: siteID, SeedURL: seedURL, Brand: brand}
		payload, err := json.Marshal(&lg)
		if err != nil {
			t.Fatal(err)
		}
		// Marshal replaces invalid UTF-8; compare with what a decode reads.
		var back struct{ SeedURL string }
		if err := json.Unmarshal(payload, &back); err != nil {
			t.Fatal(err)
		}
		if got := sessionio.SeedURL(payload); got != back.SeedURL {
			t.Fatalf("SeedURL(%s) = %q, want %q", payload, got, back.SeedURL)
		}
		if utf8.ValidString(seedURL) && back.SeedURL != seedURL {
			t.Fatalf("SeedURL %q decoded as %q", seedURL, back.SeedURL)
		}

		got := sessionio.SeedURL(raw)
		var probe struct{ SeedURL string }
		if json.Unmarshal(raw, &probe) != nil || !distinctTopLevelKeys(raw) {
			return
		}
		if got != probe.SeedURL {
			t.Fatalf("SeedURL(%q) = %q, json.Unmarshal reads %q", raw, got, probe.SeedURL)
		}
	})
}

// distinctTopLevelKeys reports whether raw, valid JSON, is not an object
// or is one in which no two keys are equal under the case folding
// encoding/json binds fields with.
func distinctTopLevelKeys(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return true
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key := tok.(string)
		for _, k := range keys {
			if strings.EqualFold(k, key) {
				return false
			}
		}
		keys = append(keys, key)
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return true
}
