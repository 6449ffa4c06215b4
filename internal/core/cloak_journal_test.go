package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
)

// TestCrawlJournalCloakProtocol pins the cloak knobs' place in the run
// manifest: a cloak-enabled journaled crawl resumes under the same flags,
// and cloak drift in either direction — cloaking turned off over a cloaked
// journal, turned on over a plain one, or a different retry budget — is
// refused on both the resume and the shard path instead of silently mixing
// two cloak universes (and therefore two mutation schedules) in one
// journal.
func TestCrawlJournalCloakProtocol(t *testing.T) {
	opts := core.Options{
		NumSites:           40,
		Seed:               9,
		Workers:            8,
		DetectorTrainPages: 80,
		CloakRate:          0.5,
		CloakRetries:       3,
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
	shard := func(p *core.Pipeline, dir string) error {
		t.Helper()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return p.CrawlJournalShard(j, 0, 0, nil)
	}
	refused := func(err error) bool { return err != nil && strings.Contains(err.Error(), "manifest") }

	dir := t.TempDir()
	if _, err := crawl(pipe(opts), dir); err != nil {
		t.Fatalf("fresh cloak crawl: %v", err)
	}

	// Resume under identical flags: the manifest matches, every URL is
	// complete.
	p := pipe(opts)
	skipped, err := crawl(p, dir)
	if err != nil {
		t.Fatalf("cloak resume: %v", err)
	}
	if skipped != len(p.Feed.URLs()) {
		t.Fatalf("resume skipped %d of %d URLs", skipped, len(p.Feed.URLs()))
	}

	// Cloaking off over a cloaked journal: refused.
	noCloak := opts
	noCloak.CloakRate, noCloak.CloakRetries = 0, 0
	if _, err := crawl(pipe(noCloak), dir); !refused(err) {
		t.Fatalf("cloak-off resume over cloaked journal: err = %v, want manifest refusal", err)
	}

	// A different retry budget over the same corpus (rate unchanged).
	drift := opts
	drift.CloakRetries = 5
	if _, err := crawl(pipe(drift), dir); !refused(err) {
		t.Fatalf("drifted-budget resume: err = %v, want manifest refusal", err)
	}

	// The shard path refuses the same drift in both directions.
	if err := shard(pipe(noCloak), dir); !refused(err) {
		t.Fatalf("cloak-off shard over cloaked journal: err = %v, want manifest refusal", err)
	}
	plainDir := t.TempDir()
	if _, err := crawl(pipe(noCloak), plainDir); err != nil {
		t.Fatalf("plain journaled crawl: %v", err)
	}
	if err := shard(pipe(opts), plainDir); !refused(err) {
		t.Fatalf("cloak shard over plain journal: err = %v, want manifest refusal", err)
	}
}
