package triage_test

import (
	"encoding/base64"
	"net/http"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/phishserver"
	"repro/internal/raster"
	"repro/internal/site"
	"repro/internal/triage"
)

// TestOutOfPaletteImageNeitherCrashesCrawlNorProbe serves a landing page
// that inlines a PXI image whose color byte lies outside the palette. The
// decoder must refuse it, so the screenshot never holds a pixel the hash
// and embedding tables cannot index: the session and the triage probe both
// finish, and the probe is healthy (a panicking probe would have sent the
// URL to a full session; see TestPanickingProbeGoesToFullSession).
func TestOutOfPaletteImageNeitherCrashesCrawlNorProbe(t *testing.T) {
	pxi := raster.Encode(raster.New(8, 8, raster.Red))
	pxi[13] = 200 // the color byte of the image's single run
	if _, err := raster.Decode(pxi); err == nil {
		t.Fatal("Decode accepted a color outside the palette")
	}
	uri := "data:image/pxi;base64," + base64.StdEncoding.EncodeToString(pxi)
	s := &site.Site{ID: "hostile", Host: "hostile.test", Pages: []*site.Page{{
		Path: "/",
		HTML: `<html><head><title>Sign in</title></head><body><img src="` + uri + `" width="8" height="8">` +
			`<form action="/"><div><label>Email</label><input name="email"></div><button>Next</button></form></body></html>`,
	}}}
	reg := phishserver.NewRegistry()
	reg.AddSite(s)
	var transport http.RoundTripper = phishserver.Transport{Registry: reg}
	nb := func() *browser.Browser { return browser.New(browser.Options{Transport: transport}) }
	const url = "http://hostile.test/"

	c := &crawler.Crawler{NewBrowser: nb, FakerSeed: 7}
	if log := c.Crawl(url); len(log.Pages) == 0 {
		t.Errorf("crawl logged no page (outcome %s, error %q)", log.Outcome, log.Error)
	}
	p := triage.BuildPlan([]string{url}, triage.Config{Workers: 2, NewBrowser: nb})
	if p.Campaigns != 1 {
		t.Errorf("plan indexed %d campaigns, want the healthy probe's one", p.Campaigns)
	}
}

// panicTransport panics on every request for host.
type panicTransport struct {
	inner http.RoundTripper
	host  string
}

func (t panicTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == t.host {
		panic("hostile landing page")
	}
	return t.inner.RoundTrip(req)
}

// TestPanickingProbeGoesToFullSession panics inside one URL's probe, in a
// probe goroutine. BuildPlan must return, sending that URL to a full
// session (where the farm's panic guard classifies it) with no campaign,
// and leave every other entry as a plan without the panic has it. The
// panicking URL is an attributed clone, so it founds no campaign whose
// absence would renumber the others.
func TestPanickingProbeGoesToFullSession(t *testing.T) {
	urls, _, transport := testFeed(60, 6)
	build := func(rt http.RoundTripper) *triage.Plan {
		return triage.BuildPlan(urls, triage.Config{Workers: 4, NewBrowser: browserOver(rt), Memo: crawler.NewMemo()})
	}
	want := build(transport)
	victim := -1
	for i, e := range want.Entries {
		if e.Decision == triage.DecisionAttributed {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("clone-heavy plan has no attributed entry")
	}
	host := strings.TrimSuffix(strings.TrimPrefix(urls[victim], "http://"), "/")
	got := build(panicTransport{inner: transport, host: host})
	for i, g := range got.Entries {
		w := want.Entries[i]
		if i == victim || strings.Contains(w.URL, "://"+host+"/") {
			if g.Decision != triage.DecisionFull || g.Campaign != "" {
				t.Errorf("entry %d (%s) with a panicking probe: decision %s, campaign %q; want %s and none",
					i, g.URL, g.Decision, g.Campaign, triage.DecisionFull)
			}
			continue
		}
		if g.Decision != w.Decision || g.Campaign != w.Campaign || g.Similarity != w.Similarity || g.Score != w.Score {
			t.Errorf("entry %d (%s) changed: %+v, want %+v", i, g.URL, g, w)
		}
	}
}
