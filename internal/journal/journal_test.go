package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	// Simulate a crash: no Close, no final checkpoint.
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

func TestJournalSupersededRetryRecordsAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	appendN(t, j, 12, 0)
	// Re-crawl three URLs (a later resumed run re-adjudicating them): the
	// newer records supersede the old ones.
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

	dropped, err := j.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if dropped != 3 {
		t.Fatalf("Compact dropped %d records, want 3", dropped)
	}
	check(j, 12)
	// Still appendable after compaction, and the rewrite survives reopen.
	appendN(t, j, 1, 12)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if j2.CompletedCount() != 13 {
		t.Fatalf("CompletedCount after compact+reopen = %d, want 13", j2.CompletedCount())
	}
	check(j2, 13)
}

func TestJournalManifestRebuiltFromSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	want := appendN(t, j, 20, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the manifest (and the checkpoint, which might otherwise mask
	// index rebuilding): the segment files alone must reconstruct the
	// journal.
	os.Remove(filepath.Join(dir, manifestName))
	os.Remove(filepath.Join(dir, checkpointName))
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	got, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("manifest rebuild lost records")
	}
}

func TestJournalStaleCheckpointDiscarded(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone})
	appendN(t, j, 6, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate an OS crash that lost the tail data but kept the newer
	// checkpoint: chop the last record off the segment while CHECKPOINT
	// still claims it.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-40); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	// The torn sixth record is gone; the checkpoint must not resurrect it.
	if j2.CompletedCount() != 5 {
		t.Fatalf("CompletedCount = %d, want 5 after stale checkpoint discard", j2.CompletedCount())
	}
	got, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("Sessions = %d, want 5", len(got))
	}
}

func TestJournalOrphanSegmentAdopted(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone})
	want := appendN(t, j, 4, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A roll that crashed after creating the next segment but before
	// committing the manifest leaves an empty orphan.
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	got, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("orphan adoption lost records")
	}
	appendN(t, j2, 2, 4)
	if j2.CompletedCount() != 6 {
		t.Fatalf("CompletedCount = %d, want 6", j2.CompletedCount())
	}
}

func TestJournalCheckpointSpeedsReopen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 1024, CheckpointEvery: 4, Sync: SyncNone})
	appendN(t, j, 30, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if j2.CompletedCount() != 30 {
		t.Fatalf("CompletedCount = %d, want 30", j2.CompletedCount())
	}
}

func TestJournalRejectsSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	appendN(t, j, 20, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, checkpointName)) // force a full scan
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
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestBindRunPolicy pins the run-record policy: a fresh journal records
// the manifest, a journal holding one accepts only byte-equal manifests —
// also after a reopen that skips the sealed segment holding the record
// (checkpoint), after one that rescans every segment, and after
// compaction — and a journal with sessions but no run record is refused.
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
	opts := Options{Sync: SyncNone, SegmentBytes: 512, CheckpointEvery: 4}
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
		t.Fatalf("journal has %d segments; the reopen below must skip a sealed one", len(j.segments))
	}
	j = mustOpen(t, dir, opts)
	check(j, "reopened from checkpoint")
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	check(j, "compacted")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal(err)
	}
	j = mustOpen(t, dir, opts)
	check(j, "reopened by rescan")
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
// is still the bound one after a reopen, from the checkpoint or by rescan.
func TestBoundManifestSurvivesReopen(t *testing.T) {
	manifest := []byte(`{"pad":"` + strings.Repeat("m", 4096) + `"}`)
	other := []byte(`{"pad":"` + strings.Repeat("o", 4096) + `"}`)
	dir := t.TempDir()
	opts := Options{Sync: SyncNone, CheckpointEvery: 16}
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
	for _, ckpt := range []bool{true, false} {
		if !ckpt {
			if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
				t.Fatal(err)
			}
		}
		j := mustOpen(t, dir, opts)
		if err := j.BindRun(manifest); err != nil {
			t.Fatalf("checkpoint %v: own manifest refused after reopen: %.200v", ckpt, err)
		}
		if err := j.BindRun(other); err == nil {
			t.Fatalf("checkpoint %v: another manifest accepted after reopen", ckpt)
		}
		if got := j.CompletedCount(); got != 200 {
			t.Fatalf("checkpoint %v: CompletedCount = %d, want 200", ckpt, got)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
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
// per successful session append, before the append returns, under the
// serial and the group-commit policies.
func TestAfterSessionCountsAppends(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncGroup} {
		calls := 0
		j := mustOpen(t, t.TempDir(), Options{Sync: policy, AfterSession: func() { calls++ }})
		for i := 0; i < 5; i++ {
			appendN(t, j, 1, i)
			if calls != i+1 {
				t.Errorf("policy %v: hook ran %d times after %d appends", policy, calls, i+1)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
