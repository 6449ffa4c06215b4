package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crawler"
)

func TestNewPipelineDefaults(t *testing.T) {
	p, err := core.NewPipeline(core.Options{NumSites: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Corpus.Sites) != 40 {
		t.Fatalf("corpus = %d sites", len(p.Corpus.Sites))
	}
	if p.FieldClassifier == nil || p.Detector == nil || p.TermClassifier == nil || p.Gallery == nil {
		t.Fatal("models not trained")
	}
	if len(p.CaptchaExemplars) == 0 {
		t.Fatal("no captcha exemplars")
	}
	if p.Registry.SiteCount() != 40 {
		t.Fatalf("registry sites = %d", p.Registry.SiteCount())
	}
}

func TestCrawlSample(t *testing.T) {
	p, err := core.NewPipeline(core.Options{NumSites: 40, Seed: 9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Crawl(10)
	if len(p.Logs) != 10 {
		t.Fatalf("sampled logs = %d", len(p.Logs))
	}
	for _, l := range p.Logs {
		if l.Outcome == crawler.OutcomeError {
			t.Errorf("session errored: %s", l.SeedURL)
		}
		if l.SiteID == "" {
			t.Error("metadata not attached")
		}
	}
	if p.Stats.Sites != 10 {
		t.Errorf("stats sites = %d", p.Stats.Sites)
	}
	opts := p.CaptchaAnalysisOptions()
	if len(opts.Exemplars) == 0 {
		t.Error("captcha analysis options empty")
	}
}

func TestPipelineDeterministicCorpus(t *testing.T) {
	a, err := core.NewPipeline(core.Options{NumSites: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewPipeline(core.Options{NumSites: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Corpus.Sites {
		if a.Corpus.Sites[i].Host != b.Corpus.Sites[i].Host {
			t.Fatal("same seed produced different corpora")
		}
	}
}

// TestPipelineDeterministicModels pins down that the concurrent training
// steps in NewPipeline stay bit-identical run to run: each step owns an
// independent seeded RNG stream, so scheduling must not leak into any
// model's bytes.
func TestPipelineDeterministicModels(t *testing.T) {
	a, err := core.NewPipeline(core.Options{NumSites: 20, Seed: 5, DetectorTrainPages: 80})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewPipeline(core.Options{NumSites: 20, Seed: 5, DetectorTrainPages: 80})
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Detector.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Detector.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Error("same seed produced different detectors")
	}
	fa, err := a.FieldClassifier.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.FieldClassifier.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(fa) != string(fb) {
		t.Error("same seed produced different field classifiers")
	}
	if len(a.CaptchaExemplars) == 0 || len(a.CaptchaExemplars) != len(b.CaptchaExemplars) {
		t.Fatalf("exemplar counts differ: %d vs %d", len(a.CaptchaExemplars), len(b.CaptchaExemplars))
	}
	for i := range a.CaptchaExemplars {
		if a.CaptchaExemplars[i] != b.CaptchaExemplars[i] {
			t.Fatal("same seed produced different captcha exemplars")
		}
	}
}
