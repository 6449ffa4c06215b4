package crawler

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/browser"
	"repro/internal/chaos"
	"repro/internal/dom"
	"repro/internal/layout"
	"repro/internal/phishserver"
	"repro/internal/raster"
	"repro/internal/site"
)

// memoURLs is a feed with every kind of repeat the memo serves: a login
// flow and its clone on another host, an OCR-labelled page and its clone
// (each host serving the background image), a visual-submit page, a
// cloaked clone whose decoy every uncloaking attempt meets again, two
// clones under chaos faults (one replaced by a takedown page and one
// truncating every response), and a kit rejecting every submission on
// three hosts, whose page every data attempt detects on with other values
// typed.
var memoURLs = []string{
	"http://lp.test/", "http://lp2.test/", "http://ocr.test/", "http://ocr2.test/",
	"http://vs.test/", "http://cl.test/", "http://td.test/", "http://tr.test/",
	"http://rj.test/", "http://rj2.test/", "http://rj3.test/",
}

// rejectingSite is a kit whose form no submission passes: it validates a
// field the form does not have. So the crawler types three sets of values
// and ends each data attempt with visual submit, clicking the canvas
// button its detector finds on the typed page. Besides the text inputs,
// which are the page's value holes, the form carries a password field, a
// select, a consent checkbox and a text input styled under GlyphH+4
// pixels tall, which is not a hole: its typed value changes the page's
// ScanKey.
func rejectingSite() *site.Site {
	base := `<form action="/" method="post">
<div><label>Email address</label><input name="email"></div>
<div><label>Password</label><input type="password" name="pass"></div>
<div><label>Country</label><select name="country"><option>United States</option><option>Canada</option></select></div>
<div><label>Phone number</label><input name="phone" style="height:9px"></div>
<div><input type="checkbox" name="agree"><span>I agree to the terms</span></div>
<canvas data-label="SUBMIT" width="76" height="18"></canvas></form>`
	probe := dom.Parse("<html><body>" + base + "</body></html>")
	cbox, _ := layout.Compute(probe, browser.ViewportWidth).Box(probe.ElementsByTag("canvas")[0])
	html := fmt.Sprintf(`<html><head>
<script type="application/x-behavior">{"clickzones":[{"x":%d,"y":%d,"w":%d,"h":%d,"action":"submit"}]}</script>
</head><body>%s</body></html>`, cbox.X, cbox.Y, cbox.W, cbox.H, base)
	return &site.Site{ID: "rj", Host: "rj.test",
		Pages: []*site.Page{
			{Path: "/", HTML: html, Next: "/end", Mode: site.NextRedirect,
				Validate: map[string]string{"absent": site.ValidateAny}},
			{Path: "/end", HTML: "<html><body><div>in</div></body></html>"},
		},
		Images: map[string][]byte{}}
}

// memoCrawler returns a memo-less crawler over the memoURLs sites, with
// its own registry so its crawls share no server state with another's.
func memoCrawler(t testing.TB) *Crawler {
	clone := func(s *site.Site, host string) *site.Site {
		cp := *s
		cp.ID, cp.Host = host, host
		return &cp
	}
	lp, ocrSite, rj := loginPaymentSite(), buildOCRSite(t), rejectingSite()
	cloaked := cloakedLoginSite(site.CloakRule{Kind: site.CloakUserAgent, Value: browser.UserAgents()[1]})
	reg := phishserver.NewRegistry()
	for _, s := range []*site.Site{
		lp, clone(lp, "lp2.test"), ocrSite, clone(ocrSite, "ocr2.test"), visualSubmitSite(),
		clone(cloaked, "cl.test"), clone(lp, "td.test"), clone(lp, "tr.test"),
		rj, clone(rj, "rj2.test"), clone(rj, "rj3.test"),
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
// clones on other hosts, uncloaking re-attempts, chaos failures and typed
// pages rescanned from a stored scan export the same bytes with a warming
// memo as without one, pooled (as a pipeline's crawler is) and unpooled.
func TestCrawlMemoMatchesNoMemo(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		plain, memo := memoCrawler(t), memoCrawler(t)
		memo.Memo = NewMemo()
		if pooled {
			memo.Pool = NewSessionPool()
		}
		crawlMatches(t, memo, plain, func() {})
		if len(memo.Memo.m) == 0 || len(memo.Memo.scans) == 0 {
			t.Fatalf("pooled %v: the memo stored %d entries and %d scans", pooled, len(memo.Memo.m), len(memo.Memo.scans))
		}
	}
}

// TestMemoBoundChangesNoOutput overflows a memo bounded at two entries, two
// scans and two looks on every crawl; clearing it must change no export.
func TestMemoBoundChangesNoOutput(t *testing.T) {
	plain, memo := memoCrawler(t), memoCrawler(t)
	memo.Memo = NewBoundedMemo(2)
	scans, looks := map[scanKey]bool{}, map[[32]byte]bool{}
	crawlMatches(t, memo, plain, func() {
		if n, s, l := len(memo.Memo.m), len(memo.Memo.scans), len(memo.Memo.looks); n > 2 || s > 2 || l > 2 {
			t.Fatalf("memo holds %d entries, %d scans and %d looks, bound 2", n, s, l)
		}
		for k := range memo.Memo.scans {
			scans[k] = true
		}
		for k := range memo.Memo.looks {
			looks[k] = true
		}
	})
	if len(scans) <= 2 || len(looks) <= 2 {
		t.Fatalf("only %d distinct scans and %d looks stored: the memo never overflowed", len(scans), len(looks))
	}
}

// TestMemoServesStoredResults proves the hit path is taken: after a crawl
// warms the memo, the stored results are overwritten, and the next crawl
// of the same content must report the overwritten values. The OCR page's
// clone on another host checks the page hash, embedding and fields, and
// that a copy of the crawler without a detector or OCR, which shares only
// the memo's looks, takes its page hash and embedding from them; a repeat
// crawl of the visual-submit page checks the button detections, rescanned
// from the stored scan of the page, replaced by a blank page's: no data
// attempt, whatever values it types, finds a button to click.
func TestMemoServesStoredResults(t *testing.T) {
	plain := memoCrawler(t)
	c := memoCrawler(t)
	c.Memo = NewMemo()
	c.Crawl("http://ocr.test/")
	for k, e := range c.Memo.m {
		if e.obs != nil {
			obs := e.obs.clone()
			obs.PHash[0] ^= 1
			e.obs = &obs
		}
		if e.hasFields {
			fields := append([]memoField(nil), e.fields...)
			for i := range fields {
				fields[i].info.Description = "poisoned"
			}
			e.fields = fields
		}
		c.Memo.m[k] = e
	}
	for k, l := range c.Memo.looks {
		l.hash[1] ^= 1
		if l.embed != nil {
			emb := *l.embed
			emb.PHash[0] ^= 1
			l.embed = &emb
		}
		c.Memo.looks[k] = l
	}
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
	ablated := *c
	ablated.Detector, ablated.DisableOCR = nil, true
	plain.Detector, plain.DisableOCR = nil, true
	want, got = plain.Crawl("http://ocr2.test/"), ablated.Crawl("http://ocr2.test/")
	if h := got.Pages[0].PHash; h == want.Pages[0].PHash || h[1] == want.Pages[0].PHash[1] {
		t.Error("page hash of a copy without detector or OCR not served from the shared look")
	}
	if got.FirstPageEmbedding.PHash == want.FirstPageEmbedding.PHash {
		t.Error("first-page embedding of a copy without detector or OCR not served from the shared look")
	}
	plain = memoCrawler(t)

	// The scan of a blank page the size of vs.test's: rescanning a typed
	// page from it finds no button, so no data attempt can submit.
	c = memoCrawler(t)
	c.Memo = NewMemo()
	c.Crawl("http://vs.test/")
	vs, err := c.NewBrowser().Navigate("http://vs.test/")
	if err != nil {
		t.Fatal(err)
	}
	shot := vs.Screenshot()
	_, blank := c.Detector.DetectScan(raster.New(shot.W, shot.H, raster.White))
	for k := range c.Memo.scans {
		c.Memo.scans[k] = blank
	}
	want, got = plain.Crawl("http://vs.test/"), c.Crawl("http://vs.test/")
	if w, g := want.Pages[0].DataAttempts, got.Pages[0].DataAttempts; w != 1 || g != MaxDataAttempts {
		t.Errorf("button detections not rescanned from the stored scan: %d data attempts without memo, %d with", w, g)
	}
}
