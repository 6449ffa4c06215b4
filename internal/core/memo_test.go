package core_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
)

// TestAblationCopiesShareMemo runs the benchmark ablations' pattern: copies
// of the pipeline's crawler that drop the detector or the OCR fallback
// share its memo, already warmed by a full crawl, with each other. Each
// copy must export what the same copy exports without a memo, so results
// derived under one configuration are never served to another.
func TestAblationCopiesShareMemo(t *testing.T) {
	p, err := core.NewPipeline(core.Options{NumSites: 60, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Crawler.Memo == nil {
		t.Fatal("the pipeline's crawler has no memo")
	}
	urls := p.Feed.URLs()
	export := func(c *crawler.Crawler) string {
		logs, _ := farm.Run(farm.Config{Workers: 4, Crawler: c}, urls)
		b, err := json.Marshal(logs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ablations := []struct {
		name  string
		apply func(*crawler.Crawler)
	}{
		{"full", func(*crawler.Crawler) {}},
		{"no-detector", func(c *crawler.Crawler) { c.Detector = nil }},
		{"no-ocr", func(c *crawler.Crawler) { c.DisableOCR = true }},
	}
	export(p.Crawler) // warm the memo
	for _, ab := range ablations {
		shared := *p.Crawler
		ab.apply(&shared)
		alone := shared
		alone.Memo = nil
		if got, want := export(&shared), export(&alone); got != want {
			t.Errorf("%s: the copy sharing the warmed memo exports differently from one without a memo", ab.name)
		}
	}
}
