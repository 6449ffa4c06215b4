package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTornTailTruncationRecovery is the crash-recovery table test: a
// journal whose final record is cut off at EVERY possible byte offset —
// from losing the entire record down to losing its last byte — must open
// without error, recover every preceding record intact, and stay
// appendable. This is the exact shape a SIGKILL or power cut leaves
// behind.
func TestTornTailTruncationRecovery(t *testing.T) {
	master := t.TempDir()
	j := mustOpen(t, master, Options{Sync: SyncNone})
	logs := appendN(t, j, 4, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := logs[:3]

	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (%v)", segs, err)
	}
	segName := segs[0]
	whole, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record starts by decoding the first three.
	start := 0
	for i := 0; i < 3; i++ {
		_, n, err := decodeFrame(whole[start:])
		if err != nil {
			t.Fatalf("decoding record %d: %v", i, err)
		}
		start += n
	}

	for cut := start; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		j, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("cut at byte %d: Open failed: %v", cut, err)
		}
		got, err := j.Sessions()
		if err != nil {
			t.Fatalf("cut at byte %d: Sessions: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d: recovered %d sessions, want the 3 preceding the tear", cut, len(got))
		}
		if j.CompletedCount() != 3 {
			t.Fatalf("cut at byte %d: CompletedCount = %d, want 3", cut, j.CompletedCount())
		}
		// The journal must accept new appends right where it healed.
		appendN(t, j, 1, 3)
		if err := j.Close(); err != nil {
			t.Fatalf("cut at byte %d: Close: %v", cut, err)
		}
		j2 := mustOpen(t, dir, Options{})
		if j2.CompletedCount() != 4 {
			t.Fatalf("cut at byte %d: reopen lost the healed append", cut)
		}
		j2.Close()
	}
}

// TestReadSessionsTornTail: ReadSessions over a journal whose last record
// is torn returns every whole session and leaves the segment as it found
// it — a reader must not cut the in-flight tail of a live writer. A
// directory without segments is refused, and nothing is created in it.
func TestReadSessionsTornTail(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 512})
	want := appendN(t, j, 12, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need rolled segments, got %v (%v)", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	torn := info.Size() - 5
	if err := os.Truncate(last, torn); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("ReadSessions over a torn tail read %d sessions, want the %d whole ones", len(got), len(want)-1)
	}
	if info, err := os.Stat(last); err != nil || info.Size() != torn {
		t.Fatalf("ReadSessions changed the torn segment's size (%v)", err)
	}

	empty := t.TempDir()
	if _, err := ReadSessions(empty); err == nil {
		t.Fatal("ReadSessions accepted a directory without segments")
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Fatalf("ReadSessions wrote %d files into the directory it refused (%v)", len(entries), err)
	}
}
