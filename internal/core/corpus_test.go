package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// TestCrawlLeavesCorpusUnchanged: a campaign's deployments share one kit
// (pages, images, truth), so a write through any site would change every
// deployment of its campaign. A chaos+cloak crawl of a clone-heavy corpus,
// the widest path through serving, fault injection and uncloaking, must
// leave the corpus digest, every site field and image byte, as it was.
func TestCrawlLeavesCorpusUnchanged(t *testing.T) {
	profile := chaos.DefaultProfile()
	p, err := core.NewPipeline(core.Options{
		NumSites: 160, Seed: 42, Workers: 2, MinCampaignSize: 8,
		Chaos: &profile, CloakRate: 0.5, CloakRetries: 2, FetchTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	digest := func() [32]byte {
		b, err := json.Marshal(p.Corpus)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	before := digest()
	p.Crawl(0)
	if len(p.Logs) != len(p.Corpus.Sites) {
		t.Fatalf("crawled %d of %d sites", len(p.Logs), len(p.Corpus.Sites))
	}
	if digest() != before {
		t.Fatal("the crawl changed the corpus")
	}
}
