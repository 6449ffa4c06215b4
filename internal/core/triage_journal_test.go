package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/triage"
)

// TestCrawlJournalTriageProtocol pins the triage options' place in the run
// manifest: a triage-enabled journaled crawl resumes under the same flags
// (the re-derived plan is the same pure function of feed and options), and
// triage drift in either direction — triage turned off over a triaged
// journal, turned on over a plain one, or different triage knobs — is
// refused instead of silently mixing two triage universes in one journal.
func TestCrawlJournalTriageProtocol(t *testing.T) {
	opts := core.Options{
		NumSites:           40,
		Seed:               9,
		Workers:            8,
		DetectorTrainPages: 80,
		MinCampaignSize:    8,
		Triage:             &triage.Options{},
	}
	pipe := func(o core.Options) *core.Pipeline {
		t.Helper()
		p, err := core.NewPipeline(o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	crawl := func(p *core.Pipeline, dir string) (int, error) {
		t.Helper()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return p.CrawlJournal(j, 0)
	}
	refused := func(err error) bool { return err != nil && strings.Contains(err.Error(), "manifest") }

	dir := t.TempDir()
	if _, err := crawl(pipe(opts), dir); err != nil {
		t.Fatalf("fresh triage crawl: %v", err)
	}

	// Resume under identical flags: every URL is already complete.
	p := pipe(opts)
	skipped, err := crawl(p, dir)
	if err != nil {
		t.Fatalf("triage resume: %v", err)
	}
	if skipped != len(p.Feed.URLs()) {
		t.Fatalf("resume skipped %d of %d URLs", skipped, len(p.Feed.URLs()))
	}

	// Triage off over a triaged journal: refused.
	noTriage := opts
	noTriage.Triage = nil
	if _, err := crawl(pipe(noTriage), dir); !refused(err) {
		t.Fatalf("triage-off resume over triaged journal: err = %v, want manifest refusal", err)
	}

	// Different triage knobs: refused.
	drift := opts
	drift.Triage = &triage.Options{CampaignThreshold: 0.5}
	if _, err := crawl(pipe(drift), dir); !refused(err) {
		t.Fatalf("drifted-flags resume: err = %v, want manifest refusal", err)
	}

	// The reverse direction: a journal crawled without triage cannot be
	// resumed with it.
	plainDir := t.TempDir()
	if _, err := crawl(pipe(noTriage), plainDir); err != nil {
		t.Fatalf("plain journaled crawl: %v", err)
	}
	if _, err := crawl(pipe(opts), plainDir); !refused(err) {
		t.Fatalf("triage resume over plain journal: err = %v, want manifest refusal", err)
	}
}
