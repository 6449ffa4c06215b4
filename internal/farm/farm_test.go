package farm

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/fielddata"
	"repro/internal/metrics"
	"repro/internal/phishserver"
	"repro/internal/site"
	"repro/internal/textclass"
	"repro/internal/trace"
)

func quickSite(host string) *site.Site {
	return &site.Site{
		ID: host, Host: host,
		Pages: []*site.Page{
			{Path: "/", HTML: `<html><body><form action="/"><div><label>Email</label><input name="e"></div><button>Go</button></form></body></html>`,
				Next: "/done", Mode: site.NextRedirect},
			{Path: "/done", HTML: "<html><body><div>done</div></body></html>"},
		},
		Images: map[string][]byte{},
	}
}

var classifierOnce sync.Once
var sharedClassifier *textclass.Model

func testCrawler(reg *phishserver.Registry, browsers *int64) *crawler.Crawler {
	classifierOnce.Do(func() {
		var err error
		sharedClassifier, err = fielddata.TrainDefault(1)
		if err != nil {
			panic(err)
		}
	})
	return &crawler.Crawler{
		Classifier: sharedClassifier,
		NewBrowser: func() *browser.Browser {
			if browsers != nil {
				atomic.AddInt64(browsers, 1)
			}
			return browser.New(browser.Options{Transport: phishserver.Transport{Registry: reg}})
		},
		FakerSeed: 1,
	}
}

func TestRunCrawlsAll(t *testing.T) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < 40; i++ {
		s := quickSite(fmtHost(i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	var browsers int64
	logs, stats := Run(Config{Workers: 8, Crawler: testCrawler(reg, &browsers)}, urls)
	if len(logs) != 40 {
		t.Fatalf("got %d logs", len(logs))
	}
	for i, l := range logs {
		if l == nil {
			t.Fatalf("log %d nil", i)
		}
		if l.SeedURL != urls[i] {
			t.Fatal("logs out of input order")
		}
		if len(l.Pages) != 2 {
			t.Errorf("site %d crawled %d pages (outcome %s)", i, len(l.Pages), l.Outcome)
		}
	}
	// Fresh browser profile per session (the clean-container property).
	if browsers != 40 {
		t.Errorf("browsers created = %d, want 40", browsers)
	}
	if stats.Sites != 40 || stats.Elapsed <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.SitesPerDay() <= 0 {
		t.Error("throughput not computed")
	}
	if stats.Outcomes[crawler.OutcomeCompleted] == 0 {
		t.Errorf("outcomes = %v", stats.Outcomes)
	}
	if stats.Outcomes[OutcomeLost] != 0 {
		t.Errorf("lost sessions counted on a clean run: %v", stats.Outcomes)
	}
	total := 0
	for _, n := range stats.Outcomes {
		total += n
	}
	if total != stats.Sites {
		t.Errorf("outcomes sum to %d, want %d", total, stats.Sites)
	}
	// Every worker's sessions carry their traces: one render span per page.
	renders, pages := 0, 0
	for _, l := range logs {
		pages += len(l.Pages)
		for _, sp := range l.Trace {
			if sp.Kind == trace.KindStage && sp.Name == metrics.StageRender.String() {
				renders++
			}
		}
	}
	if renders != pages {
		t.Errorf("render spans = %d, want one per page (%d)", renders, pages)
	}
}

// TestRunDeterministicAcrossWorkerCountsPooled tightens the worker-count
// pin to byte identity under session pooling: with the recycling pool
// installed (the default in core), 1 worker and 30 workers must produce
// exports that marshal to the same bytes as each other AND as an unpooled
// serial run — pool recycling may never leak one session's state into the
// next, no matter which worker's pool a session graph came from.
func TestRunDeterministicAcrossWorkerCountsPooled(t *testing.T) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < 30; i++ {
		s := quickSite(fmtHost(230 + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	pooled := func() *crawler.Crawler {
		c := testCrawler(reg, nil)
		c.Pool = crawler.NewSessionPool()
		return c
	}
	unpooled, _ := Run(Config{Workers: 1, Crawler: testCrawler(reg, nil)}, urls)
	serial, _ := Run(Config{Workers: 1, Crawler: pooled()}, urls)
	wide, _ := Run(Config{Workers: 30, Crawler: pooled()}, urls)
	if len(serial) != len(urls) || len(wide) != len(urls) || len(unpooled) != len(urls) {
		t.Fatalf("log counts: unpooled %d, serial %d, wide %d, want %d", len(unpooled), len(serial), len(wide), len(urls))
	}
	for i := range serial {
		want, err := json.Marshal(unpooled[i])
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(serial[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(wide[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(want) {
			t.Errorf("site %d: pooled serial export diverges from unpooled", i)
		}
		if string(b) != string(want) {
			t.Errorf("site %d: pooled 30-worker export diverges from unpooled", i)
		}
	}
}

// TestRunDeterministicAcrossWorkerCountsMemo shares one memo among 30
// workers crawling 30 clones at once, so sessions race to fill and read
// the same entries: each must still export what a memo-less serial crawl
// exports.
func TestRunDeterministicAcrossWorkerCountsMemo(t *testing.T) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < 30; i++ {
		s := quickSite(fmtHost(260 + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	want, _ := Run(Config{Workers: 1, Crawler: testCrawler(reg, nil)}, urls)
	c := testCrawler(reg, nil)
	c.Pool, c.Memo = crawler.NewSessionPool(), crawler.NewMemo()
	got, _ := Run(Config{Workers: 30, Crawler: c}, urls)
	if len(got) != len(urls) || len(want) != len(urls) {
		t.Fatalf("log counts: memo %d, no memo %d, want %d", len(got), len(want), len(urls))
	}
	for i := range got {
		a, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("site %d: 30-worker memo export diverges from the serial memo-less one", i)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts pins the farm's reproducibility
// property: because faker seeds derive from the job index, not the worker,
// the same URL list crawled with 1 worker and with 30 produces identical
// session logs — same outcomes, same pages, same forged field values.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < 30; i++ {
		s := quickSite(fmtHost(200 + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	serial, _ := Run(Config{Workers: 1, Crawler: testCrawler(reg, nil)}, urls)
	wide, _ := Run(Config{Workers: 30, Crawler: testCrawler(reg, nil)}, urls)
	if len(serial) != len(wide) {
		t.Fatalf("log counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		a, b := serial[i], wide[i]
		if a == nil || b == nil {
			t.Fatalf("site %d: nil log", i)
		}
		if a.Outcome != b.Outcome {
			t.Errorf("site %d: outcome %q vs %q", i, a.Outcome, b.Outcome)
		}
		if len(a.Pages) != len(b.Pages) {
			t.Errorf("site %d: %d pages vs %d", i, len(a.Pages), len(b.Pages))
			continue
		}
		for pi := range a.Pages {
			pa, pb := a.Pages[pi], b.Pages[pi]
			if pa.SubmitMethod != pb.SubmitMethod {
				t.Errorf("site %d page %d: submit %q vs %q", i, pi, pa.SubmitMethod, pb.SubmitMethod)
			}
			if len(pa.Fields) != len(pb.Fields) {
				t.Errorf("site %d page %d: %d fields vs %d", i, pi, len(pa.Fields), len(pb.Fields))
				continue
			}
			for fi := range pa.Fields {
				if pa.Fields[fi].Value != pb.Fields[fi].Value {
					t.Errorf("site %d page %d field %d: forged %q vs %q",
						i, pi, fi, pa.Fields[fi].Value, pb.Fields[fi].Value)
				}
				if pa.Fields[fi].Label != pb.Fields[fi].Label {
					t.Errorf("site %d page %d field %d: label %q vs %q",
						i, pi, fi, pa.Fields[fi].Label, pb.Fields[fi].Label)
				}
			}
		}
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	reg := phishserver.NewRegistry()
	s := quickSite("one.test")
	reg.AddSite(s)
	logs, _ := Run(Config{Crawler: testCrawler(reg, nil)}, []string{s.SeedURL()})
	if len(logs) != 1 || logs[0] == nil {
		t.Fatal("single-site run failed")
	}
}

func TestRunEmpty(t *testing.T) {
	reg := phishserver.NewRegistry()
	logs, stats := Run(Config{Crawler: testCrawler(reg, nil)}, nil)
	if len(logs) != 0 || stats.Sites != 0 {
		t.Error("empty run should be trivial")
	}
}

func TestDistinctFakerSeedsAcrossSessions(t *testing.T) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < 6; i++ {
		s := quickSite(fmtHost(100 + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	logs, _ := Run(Config{Workers: 2, Crawler: testCrawler(reg, nil)}, urls)
	values := map[string]int{}
	for _, l := range logs {
		for _, p := range l.Pages {
			for _, f := range p.Fields {
				if f.Value != "" {
					values[f.Value]++
				}
			}
		}
	}
	if len(values) < 4 {
		t.Errorf("forged values not diverse across sessions: %v", values)
	}
}

func fmtHost(i int) string {
	const digits = "0123456789"
	return "s" + string(digits[i/100%10]) + string(digits[i/10%10]) + string(digits[i%10]) + ".test"
}
