package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sessionio"
	"repro/internal/triage"
)

// firstDiff returns the first line where a and b differ, for a readable
// failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " != " + bl[i]
		}
	}
	return "one report is a prefix of the other"
}

func reportOf(t *testing.T, c config, in string) string {
	t.Helper()
	p, logs, err := sessions(c, in)
	if err != nil {
		t.Fatal(err)
	}
	text, err := paperReport(c, p, logs)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestReportFromSavedCrawl pins -i: the report of a crawl equals the
// report of its JSON Lines export and of a journal holding the same crawl,
// with and without triage (-i builds no plan; the sessions carry their
// verdicts).
func TestReportFromSavedCrawl(t *testing.T) {
	for _, tri := range []bool{false, true} {
		c := config{sites: 150, seed: 7, workers: 2, detScale: 50, triage: tri}
		p, logs, err := sessions(c, "")
		if err != nil {
			t.Fatal(err)
		}
		want, err := paperReport(c, p, logs)
		if err != nil {
			t.Fatal(err)
		}
		if tri != strings.Contains(want, "## Triage funnel") {
			t.Fatalf("triage %v: report has triage table %v", tri, !tri)
		}

		dir := t.TempDir()
		export := filepath.Join(dir, "logs.jsonl")
		if err := sessionio.WriteFile(export, logs); err != nil {
			t.Fatal(err)
		}
		jdir := filepath.Join(dir, "journal")
		opts := core.Options{NumSites: c.sites, Seed: c.seed, Workers: c.workers}
		if tri {
			opts.Triage = &triage.Options{}
		}
		jp, err := core.NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jp.CrawlJournal(j, 0); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		for _, in := range []string{export, jdir} {
			if got := reportOf(t, c, in); got != want {
				t.Errorf("triage %v: -i %s differs from the crawl's report: %s", tri, filepath.Base(in), firstDiff(want, got))
			}
		}
	}
}

// TestReportRefusesOtherFeed pins the -i input checks: sessions saved
// from one corpus are refused under a -seed or -sites that generates
// another, and an input holding no session is refused.
func TestReportRefusesOtherFeed(t *testing.T) {
	c := config{sites: 150, seed: 7, workers: 2, detScale: 50}
	_, logs, err := sessions(c, "")
	if err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(t.TempDir(), "logs.jsonl")
	if err := sessionio.WriteFile(export, logs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sessions(c, export); err != nil {
		t.Fatalf("matching flags refused: %v", err)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := sessionio.WriteFile(empty, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sessions(c, empty); err == nil || !strings.Contains(err.Error(), "no sessions") {
		t.Errorf("empty export: err = %v, want no sessions", err)
	}
	for _, bad := range []config{
		{sites: 150, seed: 8, workers: 2, detScale: 50},
		{sites: 100, seed: 7, workers: 2, detScale: 50},
	} {
		_, _, err := sessions(bad, export)
		if err == nil || !strings.Contains(err.Error(), "was not crawled from this feed") {
			t.Errorf("-sites %d -seed %d: err = %v, want a feed mismatch", bad.sites, bad.seed, err)
		}
	}
}

// TestReportEmptyDirUntouched: -i of a directory that holds no journal
// fails and writes nothing into it; reading a saved crawl never opens a
// journal writer.
func TestReportEmptyDirUntouched(t *testing.T) {
	dir := t.TempDir()
	c := config{sites: 150, seed: 7, workers: 2, detScale: 50}
	if _, _, err := sessions(c, dir); err == nil {
		t.Fatal("-i of an empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("-i left %s in the directory it read", e.Name())
	}
}
