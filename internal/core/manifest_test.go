package core_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/triage"
)

// TestRunManifestRefusals pins the run manifest as the one guard against
// mixing configurations: every option that changes session bytes is in
// it, and changing any one of them makes a journaled resume, a fleet shard
// over the same journal, and a fleet lease request all refuse. Options
// left out of the manifest (Workers here) resume freely.
func TestRunManifestRefusals(t *testing.T) {
	base := core.Options{NumSites: 24, Seed: 9, Workers: 4, DetectorTrainPages: 80}
	pipe := func(o core.Options) *core.Pipeline {
		t.Helper()
		p, err := core.NewPipeline(o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	open := func(t *testing.T, dir string) *journal.Journal {
		t.Helper()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j
	}
	resume := func(t *testing.T, p *core.Pipeline, dir string, sample int) (int, error) {
		t.Helper()
		j := open(t, dir)
		defer j.Close()
		return p.CrawlJournal(j, sample)
	}
	shard := func(t *testing.T, p *core.Pipeline, dir string, end int) error {
		t.Helper()
		j := open(t, dir)
		defer j.Close()
		return p.CrawlJournalShard(j, 0, end, nil)
	}
	manifest := func(o core.Options) []byte {
		t.Helper()
		m, err := o.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// The journal every row tries to resume: a finished crawl under base.
	dir := t.TempDir()
	if _, err := resume(t, pipe(base), dir, 0); err != nil {
		t.Fatalf("fresh crawl: %v", err)
	}

	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		URLs:     pipe(base).Feed.URLs(),
		Manifest: manifest(base),
		Root:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	lease := func(o core.Options) int {
		t.Helper()
		body, err := json.Marshal(fleet.LeaseRequest{Worker: "w", Manifest: manifest(o)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+fleet.PathLease, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	profile := chaos.DefaultProfile()
	for _, row := range []struct {
		name string
		set  func(o *core.Options)
	}{
		{"sites", func(o *core.Options) { o.NumSites = 25 }},
		{"seed", func(o *core.Options) { o.Seed = 10 }},
		{"detector-train", func(o *core.Options) { o.DetectorTrainPages = 90 }},
		{"page cap", func(o *core.Options) { o.MaxPagesPerSite = 3 }},
		{"chaos", func(o *core.Options) { o.Chaos = &profile }},
		{"chaos seed", func(o *core.Options) { o.ChaosSeed = 1 }},
		{"session budget", func(o *core.Options) { o.SessionBudget = time.Minute }},
		{"fetch timeout", func(o *core.Options) { o.FetchTimeout = time.Second }},
		{"retries", func(o *core.Options) { o.MaxRetries = 5 }},
		{"retry base", func(o *core.Options) { o.RetryBase = time.Millisecond }},
		{"retry max", func(o *core.Options) { o.RetryMax = time.Second }},
		{"triage", func(o *core.Options) { o.Triage = &triage.Options{TopK: 5} }},
		{"campaign min", func(o *core.Options) { o.MinCampaignSize = 6 }},
		{"cloak rate", func(o *core.Options) { o.CloakRate = 0.5 }},
		{"cloak retries", func(o *core.Options) { o.CloakRetries = 2 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			o := base
			row.set(&o)
			if bytes.Equal(manifest(o), manifest(base)) {
				t.Fatalf("manifest does not pin %s", row.name)
			}
			p := pipe(o)
			if _, err := resume(t, p, dir, 0); err == nil || !strings.Contains(err.Error(), "manifest") {
				t.Errorf("resume: err = %v, want a manifest refusal", err)
			}
			if err := shard(t, p, dir, len(p.Feed.URLs())); err == nil || !strings.Contains(err.Error(), "manifest") {
				t.Errorf("shard: err = %v, want a manifest refusal", err)
			}
			if got := lease(o); got != http.StatusConflict {
				t.Errorf("lease request answered %d, want %d", got, http.StatusConflict)
			}
		})
	}

	t.Run("unpinned workers", func(t *testing.T) {
		o := base
		o.Workers = 1
		p := pipe(o)
		skipped, err := resume(t, p, dir, 0)
		if err != nil {
			t.Fatalf("resume with another worker count: %v", err)
		}
		if skipped != len(p.Feed.URLs()) {
			t.Fatalf("resume skipped %d of %d URLs", skipped, len(p.Feed.URLs()))
		}
		if got := lease(o); got != http.StatusOK {
			t.Fatalf("lease request answered %d, want 200", got)
		}
	})

	t.Run("defaults spelled out", func(t *testing.T) {
		// The farm, crawler and browser defaults resolve before the
		// manifest is taken: -retries 0 and -retries 2 run the same crawl.
		o := base
		o.MaxRetries = farm.DefaultMaxRetries
		o.SessionBudget = crawler.DefaultSessionBudget
		o.FetchTimeout = browser.DefaultFetchTimeout
		if !bytes.Equal(manifest(o), manifest(base)) {
			t.Fatalf("manifest pins how a default was spelled:\n%s\n%s", manifest(o), manifest(base))
		}
		p := pipe(o)
		skipped, err := resume(t, p, dir, 0)
		if err != nil {
			t.Fatalf("resume with the defaults spelled out: %v", err)
		}
		if skipped != len(p.Feed.URLs()) {
			t.Fatalf("resume skipped %d of %d URLs", skipped, len(p.Feed.URLs()))
		}
		if got := lease(o); got != http.StatusOK {
			t.Fatalf("lease request answered %d, want 200", got)
		}
	})

	t.Run("session-less journal", func(t *testing.T) {
		// An empty range binds the journal and journals no session; the
		// record it leaves still refuses another configuration.
		d := t.TempDir()
		if err := shard(t, pipe(base), d, 0); err != nil {
			t.Fatalf("binding an empty journal: %v", err)
		}
		o := base
		o.MaxRetries = 5
		if _, err := resume(t, pipe(o), d, 0); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("resume over a session-less journal: err = %v, want a manifest refusal", err)
		}
		if _, err := resume(t, pipe(base), d, 2); err != nil {
			t.Fatalf("resume under the same manifest: %v", err)
		}
	})

	t.Run("sessions without run record", func(t *testing.T) {
		// A journal written before run manifests existed: sessions, no
		// record. It opens, but nothing vouches for its configuration.
		d := t.TempDir()
		p := pipe(base)
		j := open(t, d)
		if err := j.AppendSession(&crawler.SessionLog{SeedURL: p.Feed.URLs()[0]}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CrawlJournal(j, 0); err == nil || !strings.Contains(err.Error(), "no run manifest") {
			t.Fatalf("resume: err = %v, want a refusal", err)
		}
		if err := p.CrawlJournalShard(j, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "no run manifest") {
			t.Fatalf("shard: err = %v, want a refusal", err)
		}
	})
}
