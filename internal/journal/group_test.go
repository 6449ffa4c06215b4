package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/crawler"
)

// TestSyncGroupEquivalence pins group commit to the SyncAlways format
// record-for-record: the same sequence of appends must produce identical
// records (sequence, kind, payload) and, since framing is deterministic,
// byte-identical segment files. SyncGroup changes when fsync happens, never
// what is written.
func TestSyncGroupEquivalence(t *testing.T) {
	dirAlways, dirGroup := t.TempDir(), t.TempDir()
	ja := mustOpen(t, dirAlways, Options{Sync: SyncAlways})
	jg := mustOpen(t, dirGroup, Options{Sync: SyncGroup})
	for _, j := range []*Journal{ja, jg} {
		if err := j.BindRun([]byte(`{"seed":1}`)); err != nil {
			t.Fatalf("BindRun: %v", err)
		}
		appendN(t, j, 11, 0)
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	collect := func(dir string) []Record {
		j := mustOpen(t, dir, Options{})
		defer j.Close()
		var recs []Record
		if err := j.Scan(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
			t.Fatalf("Scan(%s): %v", dir, err)
		}
		return recs
	}
	ra, rg := collect(dirAlways), collect(dirGroup)
	if len(ra) != len(rg) {
		t.Fatalf("record counts differ: SyncAlways %d, SyncGroup %d", len(ra), len(rg))
	}
	for i := range ra {
		if ra[i].Seq != rg[i].Seq || ra[i].Kind != rg[i].Kind || string(ra[i].Payload) != string(rg[i].Payload) {
			t.Fatalf("record %d differs:\nSyncAlways seq=%d kind=%d %s\nSyncGroup  seq=%d kind=%d %s",
				i, ra[i].Seq, ra[i].Kind, ra[i].Payload, rg[i].Seq, rg[i].Kind, rg[i].Payload)
		}
	}

	segsA, _ := listSegments(dirAlways)
	segsG, _ := listSegments(dirGroup)
	if len(segsA) != len(segsG) {
		t.Fatalf("segment counts differ: %v vs %v", segsA, segsG)
	}
	for i := range segsA {
		a, err := os.ReadFile(filepath.Join(dirAlways, segsA[i]))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dirGroup, segsG[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(g) {
			t.Fatalf("segment %s differs between policies", segsA[i])
		}
	}
}

// TestSyncGroupConcurrentAppends drives group commit the way the farm does
// — many goroutines appending at once — and verifies nothing is lost,
// reordered into invalid sequence numbers, or torn: after Close, a reopen
// must hold every session exactly once with contiguous sequences.
func TestSyncGroupConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncGroup})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.AppendSession(testSession(i, fmt.Sprintf("http://host%d.example/login", i), "completed"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := j2.CompletedCount(); got != n {
		t.Fatalf("CompletedCount = %d, want %d", got, n)
	}
	seen := map[uint64]bool{}
	var maxSeq uint64
	if err := j2.Scan(func(r Record) error {
		if seen[r.Seq] {
			return fmt.Errorf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n || maxSeq != n {
		t.Fatalf("sequences not contiguous: %d records, max seq %d, want %d", len(seen), maxSeq, n)
	}
}

// groupBatch white-box commits logs as ONE group-commit batch, the way a
// burst of concurrent appenders would land together, so crash tests can
// tear the tail at a known batch boundary.
func groupBatch(t *testing.T, j *Journal, logs []*crawler.SessionLog) {
	t.Helper()
	j.mu.Lock()
	for _, lg := range logs {
		payload, err := json.Marshal(lg)
		if err != nil {
			j.mu.Unlock()
			t.Fatal(err)
		}
		j.pending = append(j.pending, &groupReq{
			payload: payload, url: lg.SeedURL, done: make(chan error, 1),
		})
	}
	err := j.flushPendingLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatalf("group batch commit: %v", err)
	}
}

// TestSyncGroupCrashLossBound is the crash-loss table test for group
// commit: with one batch durably committed and a second batch torn at
// EVERY possible byte offset (a crash mid-batch-write), reopening must
// never lose a record from the first batch — the loss bound is "records of
// the unacknowledged batch only" — must keep every whole frame before the
// tear, and must stay appendable.
func TestSyncGroupCrashLossBound(t *testing.T) {
	master := t.TempDir()
	j := mustOpen(t, master, Options{Sync: SyncGroup})
	first := make([]*crawler.SessionLog, 3)
	for i := range first {
		first[i] = testSession(i, "http://host"+itoa(i)+".example/login", "completed")
	}
	groupBatch(t, j, first)
	second := make([]*crawler.SessionLog, 4)
	for i := range second {
		second[i] = testSession(10+i, "http://burst"+itoa(i)+".example/login", "completed")
	}
	groupBatch(t, j, second)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (%v)", segs, err)
	}
	segName := segs[0]
	whole, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	// frameEnds[i] is the byte offset where frame i ends; the second batch
	// starts at frameEnds[2].
	var frameEnds []int
	for off := 0; off < len(whole); {
		_, n, err := decodeFrame(whole[off:])
		if err != nil {
			t.Fatalf("decoding frame at %d: %v", off, err)
		}
		off += n
		frameEnds = append(frameEnds, off)
	}
	if len(frameEnds) != 7 {
		t.Fatalf("expected 7 frames, found %d", len(frameEnds))
	}
	batchStart := frameEnds[2]

	manifestData, err := os.ReadFile(filepath.Join(master, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := batchStart; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifestData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// How many whole frames survive this cut?
		wholeFrames := 0
		for _, end := range frameEnds {
			if end <= cut {
				wholeFrames++
			}
		}

		jr, err := Open(dir, Options{Sync: SyncGroup})
		if err != nil {
			t.Fatalf("cut at byte %d: Open failed: %v", cut, err)
		}
		if got := jr.CompletedCount(); got != wholeFrames {
			t.Fatalf("cut at byte %d: CompletedCount = %d, want %d", cut, got, wholeFrames)
		}
		// The loss bound: the durably-committed first batch always survives.
		for _, lg := range first {
			if !jr.Completed(lg.SeedURL) {
				t.Fatalf("cut at byte %d: lost %s from the acknowledged batch", cut, lg.SeedURL)
			}
		}
		// The healed journal keeps accepting group commits where it left off.
		if err := jr.AppendSession(testSession(99, "http://resumed.example/login", "completed")); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if err := jr.Close(); err != nil {
			t.Fatalf("cut at byte %d: Close: %v", cut, err)
		}
		j2 := mustOpen(t, dir, Options{})
		if got := j2.CompletedCount(); got != wholeFrames+1 {
			t.Fatalf("cut at byte %d: reopen lost the healed append", cut)
		}
		j2.Close()
	}
}
