package crawler

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/browser"
	"repro/internal/chaos"
	"repro/internal/phishserver"
	"repro/internal/site"
)

// memoURLs is a feed with every kind of repeat the memo serves: a login
// flow and its clone on another host, an OCR-labelled page and its clone
// (each host serving the background image), a visual-submit page, a
// cloaked clone whose decoy every uncloaking attempt meets again, and two
// clones under chaos faults: one replaced by a takedown page and one
// truncating every response.
var memoURLs = []string{
	"http://lp.test/", "http://lp2.test/", "http://ocr.test/", "http://ocr2.test/",
	"http://vs.test/", "http://cl.test/", "http://td.test/", "http://tr.test/",
}

// memoCrawler returns a memo-less crawler over the memoURLs sites, with
// its own registry so its crawls share no server state with another's.
func memoCrawler(t testing.TB) *Crawler {
	clone := func(s *site.Site, host string) *site.Site {
		cp := *s
		cp.ID, cp.Host = host, host
		return &cp
	}
	lp, ocrSite := loginPaymentSite(), buildOCRSite(t)
	cloaked := cloakedLoginSite(site.CloakRule{Kind: site.CloakUserAgent, Value: browser.UserAgents()[1]})
	reg := phishserver.NewRegistry()
	for _, s := range []*site.Site{
		lp, clone(lp, "lp2.test"), ocrSite, clone(ocrSite, "ocr2.test"), visualSubmitSite(),
		clone(cloaked, "cl.test"), clone(lp, "td.test"), clone(lp, "tr.test"),
	} {
		reg.AddSite(s)
	}
	reg.AddBenignHost("netflix.com")
	reg.AddBenignHost("example.com")
	only := func(host string) func(string) bool { return func(h string) bool { return h == host } }
	var rt http.RoundTripper = phishserver.Transport{Registry: reg}
	rt = &chaos.Injector{Profile: chaos.Profile{TruncateRate: 1}, Inner: rt, InjectHost: only("tr.test")}
	rt = &chaos.Injector{Profile: chaos.Profile{TakedownRate: 1}, Inner: rt, InjectHost: only("td.test")}
	m, d := models(t)
	return &Crawler{
		Classifier:   m,
		Detector:     d,
		NewBrowser:   func() *browser.Browser { return browser.New(browser.Options{Transport: rt}) },
		FakerSeed:    7,
		CloakRetries: 3,
	}
}

func exportJSON(t *testing.T, lg *SessionLog) string {
	t.Helper()
	b, err := json.Marshal(lg)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// crawlMatches crawls every memoURL twice with got and with want and
// requires byte-identical exports, traces included; after each of got's
// crawls it calls check.
func crawlMatches(t *testing.T, got, want *Crawler, check func()) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, u := range memoURLs {
			w := exportJSON(t, want.Crawl(u))
			g := exportJSON(t, got.Crawl(u))
			check()
			if g != w {
				t.Fatalf("round %d, %s: memo crawl diverged:\nmemo:    %s\nno memo: %s", round, u, g, w)
			}
		}
	}
}

// TestCrawlMemoMatchesNoMemo pins the memo's contract: repeat crawls,
// clones on other hosts, uncloaking re-attempts and chaos failures export
// the same bytes with a warming memo as without one. The memo crawler is
// pooled, as a pipeline's is.
func TestCrawlMemoMatchesNoMemo(t *testing.T) {
	plain, memo := memoCrawler(t), memoCrawler(t)
	memo.Memo, memo.Pool = NewMemo(), NewSessionPool()
	crawlMatches(t, memo, plain, func() {})
	if len(memo.Memo.m) == 0 {
		t.Fatal("the memo stored nothing")
	}
}

// TestMemoBoundChangesNoOutput overflows a memo bounded at two entries on
// every crawl; clearing it must change no export.
func TestMemoBoundChangesNoOutput(t *testing.T) {
	plain, memo := memoCrawler(t), memoCrawler(t)
	memo.Memo = newMemo(2)
	crawlMatches(t, memo, plain, func() {
		if n := len(memo.Memo.m); n > 2 {
			t.Fatalf("memo holds %d entries, bound 2", n)
		}
	})
}

// TestMemoServesStoredResults proves the hit path is taken: after a crawl
// warms the memo, the stored results are overwritten, and the next crawl
// of the same content must report the overwritten values. The OCR page's
// clone on another host checks the page hash, embedding and fields; a
// repeat crawl of the visual-submit page checks the button detections,
// with its fields left intact so it types the same values again: without
// buttons its first data attempt cannot submit, and the second, typing
// fresh values, misses the memo and submits.
func TestMemoServesStoredResults(t *testing.T) {
	plain := memoCrawler(t)
	poisoned := func(warm string, poison func(*memoEntry)) *Crawler {
		c := memoCrawler(t)
		c.Memo = NewMemo()
		c.Crawl(warm)
		for k, e := range c.Memo.m {
			poison(&e)
			c.Memo.m[k] = e
		}
		return c
	}
	c := poisoned("http://ocr.test/", func(e *memoEntry) {
		if e.obs != nil {
			obs := e.obs.clone()
			obs.PHash[0] ^= 1
			e.obs = &obs
		}
		if e.embed != nil {
			emb := *e.embed
			emb.PHash[0] ^= 1
			e.embed = &emb
		}
		if e.hasFields {
			fields := append([]memoField(nil), e.fields...)
			for i := range fields {
				fields[i].info.Description = "poisoned"
			}
			e.fields = fields
		}
	})
	want, got := plain.Crawl("http://ocr2.test/"), c.Crawl("http://ocr2.test/")
	if got.Pages[0].PHash == want.Pages[0].PHash {
		t.Error("observed page hash not served from the memo")
	}
	if got.FirstPageEmbedding.PHash == want.FirstPageEmbedding.PHash {
		t.Error("first-page embedding not served from the memo")
	}
	if len(got.Pages[0].Fields) == 0 || got.Pages[0].Fields[0].Description != "poisoned" {
		t.Errorf("fields not served from the memo: %+v", got.Pages[0].Fields)
	}

	c = poisoned("http://vs.test/", func(e *memoEntry) { e.buttons = nil })
	want, got = plain.Crawl("http://vs.test/"), c.Crawl("http://vs.test/")
	if w, g := want.Pages[0].DataAttempts, got.Pages[0].DataAttempts; w != 1 || g != 2 {
		t.Errorf("button detections not served from the memo: %d data attempts without memo, %d with", w, g)
	}
}
