package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
)

// crawledSessions returns n distinct sessions cut from the crawled ones in
// testdata/sessions.jsonl (six sessions of `phishcrawl -sites 200 -seed 42
// -o`, 3.9–11 KB each, 7.4 KB on average): session i is sample i%6 with
// its own SiteID, SeedURL and FeedIndex.
func crawledSessions(tb testing.TB, n int) []*crawler.SessionLog {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "sessions.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	samples := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	out := make([]*crawler.SessionLog, n)
	for i := range out {
		var lg crawler.SessionLog
		if err := json.Unmarshal(samples[i%len(samples)], &lg); err != nil {
			tb.Fatal(err)
		}
		lg.SiteID = fmt.Sprintf("site-%06d", i)
		lg.SeedURL = fmt.Sprintf("http://host%d.example/", i)
		lg.FeedIndex = i
		out[i] = &lg
	}
	return out
}

// writeJournal appends logs to a fresh journal in dir and closes it.
func writeJournal(tb testing.TB, dir string, opts Options, logs []*crawler.SessionLog) {
	tb.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, lg := range logs {
		if err := j.AppendSession(lg); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
}

// serialSessions is the reference read: every session frame decoded with
// json.Unmarshal, one after another, the latest per URL by Seq, sorted as
// Sessions sorts.
func serialSessions(t *testing.T, dir string) []*crawler.SessionLog {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	type slot struct {
		seq uint64
		lg  *crawler.SessionLog
	}
	latest := map[string]slot{}
	err = scanSegments(dir, segs, func(r Record) error {
		if r.Kind != KindSession {
			return nil
		}
		var lg crawler.SessionLog
		if err := json.Unmarshal(r.Payload, &lg); err != nil {
			return err
		}
		if prev, ok := latest[lg.SeedURL]; !ok || r.Seq > prev.seq {
			latest[lg.SeedURL] = slot{r.Seq, &lg}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*crawler.SessionLog
	for _, s := range latest {
		out = append(out, s.lg)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FeedIndex != out[b].FeedIndex {
			return out[a].FeedIndex < out[b].FeedIndex
		}
		return out[a].SeedURL < out[b].SeedURL
	})
	return out
}

// TestReadSessionsMatchesSerialDecode pins the parallel decode to the
// serial one: over a journal of many segments in which some URLs were
// crawled twice, ReadSessions and Sessions return exactly what a plain
// json.Unmarshal loop does, to the byte. make pins runs it at GOMAXPROCS
// 1 and 2.
func TestReadSessionsMatchesSerialDecode(t *testing.T) {
	dir := t.TempDir()
	logs := crawledSessions(t, 240)
	// Re-crawl every seventh URL: its second record must win.
	for i := 0; i < len(logs); i += 7 {
		again := *logs[i]
		again.Outcome = "recrawled"
		again.Attempts = 3
		logs = append(logs, &again)
	}
	writeJournal(t, dir, Options{Sync: SyncNone, SegmentBytes: 64 << 10}, logs)
	if segs, _ := listSegments(dir); len(segs) < 10 {
		t.Fatalf("journal has %d segments, want many", len(segs))
	}

	want := serialSessions(t, dir)
	if len(want) != 240 || want[7].Outcome != "recrawled" || want[8].Outcome == "recrawled" {
		t.Fatalf("reference read %d sessions (session 7 %q, 8 %q), want 240 with every seventh re-crawled", len(want), want[7].Outcome, want[8].Outcome)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{})
	defer j.Close()
	for name, read := range map[string]func() ([]*crawler.SessionLog, error){
		"ReadSessions": func() ([]*crawler.SessionLog, error) { return ReadSessions(dir) },
		"Sessions":     j.Sessions,
	} {
		got, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from the serial decode", name)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s marshals to different bytes than the serial decode", name)
		}
	}
}

// goroutinesSettle waits until no more than want goroutines run: the
// decoders of a read that has returned must all have exited.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the read, %d before:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// appendFrames writes CRC-valid session frames straight onto the end of
// segment path.
func appendFrames(t *testing.T, path string, recs ...Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := f.Write(encodeFrame(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSessionsFirstBadSeq: when two CRC-valid frames hold payloads
// that do not decode, the error names the lower seq, however the decoders
// race. The lower one is slow to fail (its error is at the end of 1 MB)
// and the higher one fails on its first byte, so a decoder usually sees
// the higher one fail first. A torn sealed segment after both does not
// change the error, and no decoder outlives the read.
func TestReadSessionsFirstBadSeq(t *testing.T) {
	dir := t.TempDir()
	good := crawledSessions(t, 60)
	writeJournal(t, dir, Options{Sync: SyncNone}, good[:20]) // seqs 1–20
	path := filepath.Join(dir, segmentName(1))
	slow := append([]byte(`{"SiteID":"`+strings.Repeat("a", 1<<20)+`"`), '}', '}')
	recs := []Record{{Seq: 21, Kind: KindSession, Payload: slow}}
	for i, lg := range good[20:40] {
		payload, err := json.Marshal(lg)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Seq: uint64(22 + i), Kind: KindSession, Payload: payload})
	}
	recs = append(recs, Record{Seq: 42, Kind: KindSession, Payload: []byte(`{"FeedIndex":"not a number"}`)})
	appendFrames(t, path, recs...)

	before := runtime.NumGoroutine()
	for range 5 {
		_, err := ReadSessions(dir)
		if err == nil || !strings.Contains(err.Error(), "seq 21:") {
			t.Fatalf("ReadSessions: err = %v, want the decode error of seq 21", err)
		}
		goroutinesSettle(t, before)
	}

	// A torn sealed segment after both bad frames: the decode error still
	// comes first.
	writeJournal(t, dir, Options{Sync: SyncNone, SegmentBytes: 1}, good[40:])
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need sealed segments after the bad frames, got %v", segs)
	}
	second := filepath.Join(dir, segs[1])
	info, err := os.Stat(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(second, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		_, err := ReadSessions(dir)
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "seq 21:") {
			t.Fatalf("ReadSessions: err = %v, want the decode error of seq 21", err)
		}
		goroutinesSettle(t, before)
	}
}

// TestReadSessionsTornAndCorrupt: with decoders in flight, a torn tail
// still ends the read quietly at the last whole record, a torn sealed
// segment is still ErrCorrupt, and either way every decoder has exited.
func TestReadSessionsTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	want := crawledSessions(t, 80)
	writeJournal(t, dir, Options{Sync: SyncNone, SegmentBytes: 64 << 10}, want)
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need rolled segments, got %v", segs)
	}
	tear := func(name string) {
		t.Helper()
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-5); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	tear(segs[len(segs)-1])
	got, err := ReadSessions(dir)
	if err != nil {
		t.Fatalf("ReadSessions over a torn tail: %v", err)
	}
	if !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("ReadSessions over a torn tail read %d sessions, want the %d whole ones", len(got), len(want)-1)
	}
	goroutinesSettle(t, before)

	tear(segs[1])
	if _, err := ReadSessions(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSessions over a torn sealed segment: err = %v, want ErrCorrupt", err)
	}
	goroutinesSettle(t, before)
}

// BenchmarkReadSessions reads back a fixed journal of 2,000 crawled
// sessions (about 15 MB in four segments): the report's read of a
// finished crawl, frames and decode.
func BenchmarkReadSessions(b *testing.B) {
	dir := b.TempDir()
	logs := crawledSessions(b, 2000)
	writeJournal(b, dir, Options{Sync: SyncNone}, logs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadSessions(dir)
		if err != nil || len(got) != len(logs) {
			b.Fatalf("ReadSessions: %d sessions, %v", len(got), err)
		}
	}
}

// BenchmarkSessionURL reads the SeedURL of one crawled 6.7 KB session
// payload, the per-record work of Open's replay.
func BenchmarkSessionURL(b *testing.B) {
	payload, err := json.Marshal(crawledSessions(b, 1)[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sessionURL(payload) == "" {
			b.Fatal("no SeedURL")
		}
	}
}
