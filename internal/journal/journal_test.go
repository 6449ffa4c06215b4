package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawler"
)

// testSession fabricates a distinguishable session log.
func testSession(idx int, url, outcome string) *crawler.SessionLog {
	return &crawler.SessionLog{
		SeedURL:   url,
		SiteID:    strings.ReplaceAll(url, "http://", "site-"),
		Outcome:   outcome,
		Attempts:  1 + idx%3,
		FeedIndex: idx,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, n, from int) []*crawler.SessionLog {
	t.Helper()
	var logs []*crawler.SessionLog
	for i := from; i < from+n; i++ {
		lg := testSession(i, "http://host"+itoa(i)+".example/login", "completed")
		if err := j.AppendSession(lg); err != nil {
			t.Fatalf("AppendSession(%d): %v", i, err)
		}
		logs = append(logs, lg)
	}
	return logs
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone})
	want := appendN(t, j, 10, 0)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	got, err := j2.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sessions round-trip mismatch:\n got %+v\nwant %+v", got[0], want[0])
	}
	if j2.CompletedCount() != 10 {
		t.Fatalf("CompletedCount = %d, want 10", j2.CompletedCount())
	}
	if !j2.Completed(want[3].SeedURL) || j2.Completed("http://never.example/") {
		t.Fatal("Completed() wrong for known/unknown URL")
	}
}

func TestJournalSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	want := appendN(t, j, 40, 0)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several rolled segments, got %v", segs)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	got, err := j2.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rolled journal did not round-trip")
	}
	// The journal must stay appendable across reopen with rolled segments.
	appendN(t, j2, 5, 40)
	if j2.CompletedCount() != 45 {
		t.Fatalf("CompletedCount = %d, want 45", j2.CompletedCount())
	}
}

func TestJournalResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone})
	appendN(t, j, 7, 0)
	// Simulate a crash: no Close.
	j.active.Close()

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if j2.CompletedCount() != 7 {
		t.Fatalf("CompletedCount after crash-reopen = %d, want 7", j2.CompletedCount())
	}
	appendN(t, j2, 3, 7)
	got, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("Sessions = %d, want 10", len(got))
	}
	for i, lg := range got {
		if lg.FeedIndex != i {
			t.Fatalf("session %d has FeedIndex %d; want feed order", i, lg.FeedIndex)
		}
	}
}

// TestJournalSessionsKeepsLatestPerURL: a crawl appends one session per
// URL, but a journal an earlier version wrote may hold a URL twice (a
// resumed run re-crawling it). Sessions reads the latest, also after a
// reopen.
func TestJournalSessionsKeepsLatestPerURL(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	appendN(t, j, 12, 0)
	// Re-crawl three URLs: the newer records supersede the old ones.
	for _, i := range []int{2, 5, 9} {
		lg := testSession(i, "http://host"+itoa(i)+".example/login", "stuck")
		lg.Attempts = 9
		if err := j.AppendSession(lg); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, total int) {
		t.Helper()
		got, err := j.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != total {
			t.Fatalf("Sessions = %d, want %d (latest per URL)", len(got), total)
		}
		for _, i := range []int{2, 5, 9} {
			if got[i].Outcome != "stuck" || got[i].Attempts != 9 {
				t.Fatalf("session %d not superseded: %+v", i, got[i])
			}
		}
	}
	check(j, 12)
	appendN(t, j, 1, 12)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if j2.CompletedCount() != 13 {
		t.Fatalf("CompletedCount after reopen = %d, want 13", j2.CompletedCount())
	}
	check(j2, 13)
}

// TestJournalTruncatedLastRecordDropped: an OS crash that loses the tail
// of the last record leaves it short; the reopen drops it, and the
// sessions before it all read back.
func TestJournalTruncatedLastRecordDropped(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone})
	appendN(t, j, 6, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-40); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if j2.CompletedCount() != 5 || j2.Completed("http://host5.example/login") {
		t.Fatalf("CompletedCount = %d, want 5 without the chopped sixth record", j2.CompletedCount())
	}
	got, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("Sessions = %d, want 5", len(got))
	}
}

// TestJournalIgnoresLegacyFiles: journals written by earlier versions also
// hold a MANIFEST listing their segments and a CHECKPOINT caching their
// completed URLs. The segment files alone are the journal: a MANIFEST that
// names fewer segments than exist and a CHECKPOINT claiming a URL the
// segments lack change neither the completed set, nor Sessions, nor a
// resume, and Open leaves both files as they were.
func TestJournalIgnoresLegacyFiles(t *testing.T) {
	manifest := []byte(`{"seed":1}`)
	opts := Options{SegmentBytes: 512, Sync: SyncNone}
	legacy := t.TempDir()
	j := mustOpen(t, legacy, opts)
	if err := j.BindRun(manifest); err != nil {
		t.Fatal(err)
	}
	want := appendN(t, j, 20, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(legacy)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need several segments, got %v (%v)", segs, err)
	}
	alone := t.TempDir()
	for _, name := range segs {
		data, err := os.ReadFile(filepath.Join(legacy, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(alone, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sideFiles := map[string]string{
		"MANIFEST": `{
  "version": 1,
  "segments": [
    {
      "name": "` + segs[0] + `",
      "firstSeq": 1
    }
  ]
}`,
		"CHECKPOINT": `{"seq":99,"urls":{"http://ghost.example/login":99,"http://host0.example/login":2},"run":"eyJzZWVkIjoxfQ=="}`,
	}
	for name, data := range sideFiles {
		if err := os.WriteFile(filepath.Join(legacy, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Open each twin, check what it holds, and resume it by one session.
	for _, dir := range []string{legacy, alone} {
		j := mustOpen(t, dir, opts)
		got, err := j.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Sessions differ from the 20 appended", dir)
		}
		if urls := j.CompletedURLs(); len(urls) != 20 || urls["http://ghost.example/login"] {
			t.Fatalf("%s: completed set of %d URLs, want the 20 the segments hold", dir, len(urls))
		}
		if err := j.BindRun(manifest); err != nil {
			t.Fatalf("%s: resume refused: %v", dir, err)
		}
		appendN(t, j, 1, 20)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range sideFiles {
		if got, err := os.ReadFile(filepath.Join(legacy, name)); err != nil || string(got) != data {
			t.Fatalf("Open changed the legacy %s (%v)", name, err)
		}
	}
	got, err := listSegments(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if gotAlone, _ := listSegments(alone); !reflect.DeepEqual(got, gotAlone) {
		t.Fatalf("resumed segments %v, without legacy files %v", got, gotAlone)
	}
	for _, name := range got {
		a, _ := os.ReadFile(filepath.Join(legacy, name))
		b, _ := os.ReadFile(filepath.Join(alone, name))
		if !bytes.Equal(a, b) {
			t.Fatalf("resumed segment %s differs from its twin without legacy files", name)
		}
	}
}

// TestJournalOrphanSegmentAdopted: every segment file on disk is part of
// the journal. An empty last segment (a roll that crashed right after
// creating it) becomes the active one; a copy of the records below the
// tail (left by an earlier version's interrupted compaction) keeps its
// sequence numbers and reads each URL once. Either way no record is lost
// and the journal stays appendable.
func TestJournalOrphanSegmentAdopted(t *testing.T) {
	written := func() (string, []*crawler.SessionLog) {
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{Sync: SyncNone})
		want := appendN(t, j, 4, 0)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, want
	}
	reopen := func(dir string, want []*crawler.SessionLog) []uint64 {
		t.Helper()
		j := mustOpen(t, dir, Options{})
		defer j.Close()
		got, err := j.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("reopening the segments lost records")
		}
		appendN(t, j, 2, 4)
		if j.CompletedCount() != 6 {
			t.Fatalf("CompletedCount = %d, want 6", j.CompletedCount())
		}
		var seqs []uint64
		if err := j.Scan(func(r Record) error { seqs = append(seqs, r.Seq); return nil }); err != nil {
			t.Fatal(err)
		}
		return seqs
	}

	// A roll that crashed after creating the next segment leaves it empty.
	dir, want := written()
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if seqs := reopen(dir, want); !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("sequence numbers %v after an empty last segment", seqs)
	}

	// An earlier version's compaction copied the records into a new
	// segment; interrupted before it removed the old segment, it left a
	// copy below the tail.
	dir, want = written()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if seqs := reopen(dir, want); !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("sequence numbers %v after a compaction's leftover copy", seqs)
	}
}

func TestJournalRejectsSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	appendN(t, j, 20, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need rolled segments, got %v", segs)
	}
	// Flip a byte in the middle of the FIRST (sealed) segment: that is
	// corruption, not a torn tail, and Open must refuse rather than
	// silently drop records.
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a corrupt sealed segment: err = %v, want ErrCorrupt", err)
	}
	if _, err := ReadSessions(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSessions of a corrupt sealed segment: err = %v, want ErrCorrupt", err)
	}
}

// TestBindRunPolicy pins the run-record policy: a fresh journal records
// the manifest, a journal holding one accepts only byte-equal manifests —
// also after a reopen that finds the record in a sealed segment — and a
// journal with sessions but no run record is refused.
func TestBindRunPolicy(t *testing.T) {
	manifest, other := []byte(`{"seed":1}`), []byte(`{"seed":2}`)
	check := func(j *Journal, when string) {
		t.Helper()
		if err := j.BindRun(manifest); err != nil {
			t.Fatalf("%s: own manifest refused: %v", when, err)
		}
		err := j.BindRun(other)
		if err == nil || !strings.Contains(err.Error(), string(manifest)) || !strings.Contains(err.Error(), string(other)) {
			t.Fatalf("%s: other manifest: err = %v, want a refusal showing both", when, err)
		}
	}

	dir := t.TempDir()
	opts := Options{Sync: SyncNone, SegmentBytes: 512}
	j := mustOpen(t, dir, opts)
	for _, empty := range [][]byte{nil, {}} {
		if err := j.BindRun(empty); err == nil {
			t.Fatalf("empty manifest %#v accepted", empty)
		}
	}
	if j.nextSeq != 1 {
		t.Fatalf("a refused empty manifest appended %d records", j.nextSeq-1)
	}
	check(j, "fresh")
	appendN(t, j, 20, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(j.segments) < 3 {
		t.Fatalf("journal has %d segments; the run record must be in a sealed one", len(j.segments))
	}
	j = mustOpen(t, dir, opts)
	check(j, "reopened")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := mustOpen(t, t.TempDir(), opts)
	defer legacy.Close()
	appendN(t, legacy, 1, 0)
	if err := legacy.BindRun(manifest); err == nil || !strings.Contains(err.Error(), "no run manifest") {
		t.Fatalf("sessions without a run record: err = %v, want a refusal", err)
	}
}

// TestBoundManifestSurvivesReopen: a scan reads every record into one
// reused buffer, so the run manifest Open finds must be copied out of it.
// A manifest longer than the many session records after it in its segment
// is still the bound one after a reopen.
func TestBoundManifestSurvivesReopen(t *testing.T) {
	manifest := []byte(`{"pad":"` + strings.Repeat("m", 4096) + `"}`)
	other := []byte(`{"pad":"` + strings.Repeat("o", 4096) + `"}`)
	dir := t.TempDir()
	opts := Options{Sync: SyncNone}
	j := mustOpen(t, dir, opts)
	if err := j.BindRun(manifest); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 200, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(j.segments) != 1 {
		t.Fatalf("journal has %d segments; the records must share the manifest's", len(j.segments))
	}
	j = mustOpen(t, dir, opts)
	if err := j.BindRun(manifest); err != nil {
		t.Fatalf("own manifest refused after reopen: %.200v", err)
	}
	if err := j.BindRun(other); err == nil {
		t.Fatal("another manifest accepted after reopen")
	}
	if got := j.CompletedCount(); got != 200 {
		t.Fatalf("CompletedCount = %d, want 200", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredStatsRecordSkipped: a journal written while runs still closed
// with a stats record (kind 2, retired) opens, reports and resumes as if
// the record were absent. Its twin holds the same run record and sessions
// without it.
func TestRetiredStatsRecordSkipped(t *testing.T) {
	manifest := []byte(`{"seed":1}`)
	open := func(withStats bool) *Journal {
		t.Helper()
		var seg []byte
		seq := uint64(1)
		add := func(k Kind, payload []byte) {
			seg = append(seg, encodeFrame(Record{Seq: seq, Kind: k, Payload: payload})...)
			seq++
		}
		add(KindRun, manifest)
		for i := 0; i < 4; i++ {
			if i == 2 && withStats {
				add(2, []byte(`{"Sites":2,"Elapsed":3000000000,"Panics":1}`))
			}
			payload, err := json.Marshal(testSession(i, "http://host"+itoa(i)+".example/login", "completed"))
			if err != nil {
				t.Fatal(err)
			}
			add(KindSession, payload)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		return mustOpen(t, dir, Options{Sync: SyncNone})
	}
	report := func(j *Journal) ([]*crawler.SessionLog, []Kind) {
		t.Helper()
		logs, err := j.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		var kinds []Kind
		if err := j.Scan(func(r Record) error { kinds = append(kinds, r.Kind); return nil }); err != nil {
			t.Fatal(err)
		}
		return logs, kinds
	}

	legacy, twin := open(true), open(false)
	for _, j := range []*Journal{legacy, twin} {
		if n := j.CompletedCount(); n != 4 {
			t.Fatalf("CompletedCount = %d, want 4", n)
		}
		if err := j.BindRun(manifest); err != nil {
			t.Fatalf("BindRun(own manifest): %v", err)
		}
		appendN(t, j, 1, 4)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	legacy, twin = mustOpen(t, legacy.Dir(), Options{}), mustOpen(t, twin.Dir(), Options{})
	defer legacy.Close()
	defer twin.Close()
	got, gotKinds := report(legacy)
	want, wantKinds := report(twin)
	if !reflect.DeepEqual(got, want) || legacy.CompletedCount() != 5 {
		t.Fatalf("legacy journal reports %d sessions (%d completed), its twin %d", len(got), legacy.CompletedCount(), len(want))
	}
	if k := []Kind{KindRun, KindSession, KindSession, 2, KindSession, KindSession, KindSession}; !reflect.DeepEqual(gotKinds, k) {
		t.Fatalf("legacy journal records = %v, want %v (the resumed append after the retired record)", gotKinds, k)
	}
	if len(wantKinds) != len(gotKinds)-1 {
		t.Fatalf("twin records = %v", wantKinds)
	}
}

// TestAfterSessionCountsAppends checks the crash-test hook: it runs once
// per session frame written, under the journal's lock, so at its k-th call
// exactly k session frames are on the page cache (and none of them reads as
// completed before its batch is durable) — appended one at a time or by
// concurrent appenders sharing batches. One at a time, each append returns
// only after the fsync covering its frame.
func TestAfterSessionCountsAppends(t *testing.T) {
	dir := t.TempDir()
	var j *Journal
	calls := 0
	j = mustOpen(t, dir, Options{Sync: SyncAlways, AfterSession: func() {
		calls++
		frames := 0
		segs, err := listSegments(dir)
		for _, seg := range segs {
			if err == nil {
				_, err = scanFile(filepath.Join(dir, seg), func(r Record) error {
					if r.Kind == KindSession {
						frames++
					}
					return nil
				})
			}
		}
		if err != nil || frames != calls {
			t.Errorf("hook call %d: %d session frames written (%v)", calls, frames, err)
		}
		if len(j.completed) >= calls {
			t.Errorf("hook call %d: %d URLs completed before the batch is durable", calls, len(j.completed))
		}
	}})
	for i := 0; i < 5; i++ {
		appendN(t, j, 1, i)
		j.mu.Lock()
		got, unsynced := calls, j.unsynced
		j.mu.Unlock()
		if got != i+1 || unsynced != 0 {
			t.Errorf("after %d appends: hook ran %d times, %d frames unsynced", i+1, got, unsynced)
		}
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 5; i < 5+n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.AppendSession(testSession(i, "http://host"+itoa(i)+".example/login", "completed")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 5+n {
		t.Errorf("hook ran %d times for %d appends", calls, 5+n)
	}
}
