package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawler"
)

// TestGroupCommitConcurrentAppends drives the commit loop the way the farm
// does — many goroutines appending at once — and verifies nothing is lost,
// reordered into invalid sequence numbers, or torn: after Close, a reopen
// must hold every session exactly once with contiguous sequences.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncAlways})
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
	batch := make([]*groupReq, len(logs))
	for i, lg := range logs {
		payload, err := json.Marshal(lg)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = &groupReq{kind: KindSession, payload: payload, url: lg.SeedURL}
	}
	j.mu.Lock()
	err := j.commitBatchLocked(batch)
	j.mu.Unlock()
	if err != nil {
		t.Fatalf("group batch commit: %v", err)
	}
}

// TestGroupCommitCrashLossBound is the crash-loss table test for group
// commit: with one batch durably committed and a second batch torn at
// EVERY possible byte offset (a crash mid-batch-write), reopening must
// never lose a record from the first batch — the loss bound is "records of
// the unacknowledged batch only" — must keep every whole frame before the
// tear, and must stay appendable.
func TestGroupCommitCrashLossBound(t *testing.T) {
	master := t.TempDir()
	j := mustOpen(t, master, Options{Sync: SyncAlways})
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

	for cut := batchStart; cut < len(whole); cut++ {
		dir := t.TempDir()
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

		jr, err := Open(dir, Options{Sync: SyncAlways})
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

// TestCommitFailurePoisons pins that the journal's first failed write
// sticks: with the active segment swapped for a read-only descriptor of the
// same file, an append fails, and after the good descriptor is back every
// later append, BindRun and Close still return that same error, and a
// reopen holds only the acknowledged session.
// A record refused for its size is the caller's error and poisons nothing.
func TestCommitFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncAlways})
	if err := j.BindRun(make([]byte, MaxRecordBytes)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("BindRun(oversized) = %v, want the size refusal", err)
	}
	manifest := []byte(`{"seed":1}`)
	if err := j.BindRun(manifest); err != nil {
		t.Fatalf("BindRun after a size refusal: %v", err)
	}
	appendN(t, j, 1, 0)

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (%v)", segs, err)
	}
	ro, err := os.Open(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	j.mu.Lock()
	good := j.active
	j.active = ro
	j.mu.Unlock()
	first := j.AppendSession(testSession(1, "http://lost.example/login", "completed"))
	if first == nil {
		t.Fatal("append through a read-only segment succeeded")
	}
	j.mu.Lock()
	j.active = good
	j.mu.Unlock()

	if err := j.AppendSession(testSession(2, "http://after.example/login", "completed")); !errors.Is(err, first) {
		t.Fatalf("append after the failure = %v, want the first failure %v", err, first)
	}
	if err := j.BindRun(manifest); !errors.Is(err, first) {
		t.Fatalf("BindRun after the failure = %v, want the first failure %v", err, first)
	}
	if err := j.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the first failure %v", err, first)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if n := j2.CompletedCount(); n != 1 || !j2.Completed("http://host0.example/login") {
		t.Fatalf("reopen holds %d completed URLs, want only the acknowledged one", n)
	}
}
