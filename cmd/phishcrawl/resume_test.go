package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/journal"
)

// readExport reads an export verbatim. NetLog timestamps come from the
// browser's deterministic session clock, so no field is normalized away:
// the comparison below is byte-for-byte.
func readExport(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// stageTable extracts the per-stage timing table from a run's output.
func stageTable(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "Per-stage timing")
	if i < 0 {
		t.Fatalf("no per-stage timing table in output:\n%s", out)
	}
	rest := out[i:]
	if j := strings.Index(rest, "\nsession logs written"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// segmentFiles returns the journal's segment paths in name order.
func segmentFiles(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	sort.Strings(segs)
	return segs
}

// crashJournaled runs phishcrawl with args, which journal into jdir, until
// it SIGKILLs itself right after writing its n-th journaled session
// (PHISHCRAWL_CRASH_AFTER), mid-crawl, and requires the killed journal to
// hold exactly n session records. It then tears the tail of the last
// segment by one byte, simulating a crash mid-append: the resume must
// truncate the torn record and re-crawl its URL.
func crashJournaled(t *testing.T, bin string, args []string, jdir string, n int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "PHISHCRAWL_CRASH_AFTER="+strconv.Itoa(n))
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatal(err)
	}
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("journaled crawl exited with %v, want death by SIGKILL after %d sessions:\n%s", err, n, out)
	}
	j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	err = j.Scan(func(r journal.Record) error {
		if r.Kind == journal.KindSession {
			sessions++
		}
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil || sessions != n {
		t.Fatalf("killed journal holds %d session records (%v), want exactly %d", sessions, err, n)
	}
	segs := segmentFiles(jdir)
	if len(segs) == 0 {
		t.Fatal("no journal segments after kill")
	}
	last := segs[len(segs)-1]
	if fi, err := os.Stat(last); err == nil && fi.Size() > 1 {
		if err := os.Truncate(last, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillResumeSmoke is the crash-recovery smoke run wired into `make
// chaos`: crawl with a journal, SIGKILL the process mid-crawl, tear the
// journal's tail mid-record, resume with -resume, and require the resumed
// export to match a clean uninterrupted run byte-for-byte.
func TestKillResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	args := []string{"-sites", "300", "-workers", "8", "-detector-train", "150", "-seed", "42"}
	run := func(extra ...string) string {
		out, err := exec.Command(bin, append(append([]string{}, args...), extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("phishcrawl %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	// Reference: one uninterrupted, unjournaled run.
	clean := filepath.Join(dir, "clean.jsonl")
	cleanOut := run("-o", clean)

	// Interrupted run: the crawl SIGKILLs itself after its 50th journaled
	// session, mid-crawl, and the tail is torn. The kill lands inside a
	// group commit, before its batch is synced: the crash may only lose
	// the unacknowledged batch, and the resume below must still reproduce
	// the clean run byte-for-byte. (The pipeline pools session graphs by
	// default, so this pin also covers pooling across a kill/resume
	// boundary.)
	jdir := filepath.Join(dir, "journal")
	crashJournaled(t, bin, append(append([]string{}, args...), "-journal", jdir), jdir, 50)

	// Resume and export the merged view.
	resumed := filepath.Join(dir, "resumed.jsonl")
	out := run("-journal", jdir, "-resume", "-o", resumed)
	if !strings.Contains(out, "Journal: resumed") {
		t.Fatalf("resume banner missing from output:\n%s", out)
	}

	// Stage latency percentiles derive from session-logical traces, so the
	// per-stage table — p50/p90/p99 included — must be identical between the
	// clean run and the kill/resume run, not merely close.
	cleanStages := stageTable(t, cleanOut)
	resumedStages := stageTable(t, out)
	if !strings.Contains(cleanStages, "P50") || !strings.Contains(cleanStages, "P99") {
		t.Errorf("stage table missing percentile columns:\n%s", cleanStages)
	}
	if cleanStages != resumedStages {
		t.Errorf("per-stage timing diverges between clean and resumed runs:\nclean:\n%s\nresumed:\n%s",
			cleanStages, resumedStages)
	}

	cleanBytes := readExport(t, clean)
	resumedBytes := readExport(t, resumed)
	if cleanBytes != resumedBytes {
		cl := strings.Split(cleanBytes, "\n")
		rl := strings.Split(resumedBytes, "\n")
		n := 0
		for n < len(cl) && n < len(rl) && cl[n] == rl[n] {
			n++
		}
		t.Fatalf("resumed export diverges from clean run at line %d (clean %d lines, resumed %d)",
			n+1, len(cl), len(rl))
	}

	// The journal holds exactly one session record per crawled URL: the
	// resume re-crawled only URLs whose record the kill or the torn tail
	// lost. Sessions() keeps the latest per URL, so the export above
	// cannot show a duplicate; the raw records can.
	j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	records := map[string]int{}
	err = j.Scan(func(r journal.Record) error {
		if r.Kind != journal.KindSession {
			return nil
		}
		var lg struct{ SeedURL string }
		if err := json.Unmarshal(r.Payload, &lg); err != nil {
			return err
		}
		records[lg.SeedURL]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, n := range records {
		if n != 1 {
			t.Errorf("journal holds %d session records for %s, want 1", n, u)
		}
	}
	if want := strings.Count(resumedBytes, "\n"); len(records) != want {
		t.Errorf("journal holds session records for %d URLs, want %d (one per exported session)", len(records), want)
	}
}
