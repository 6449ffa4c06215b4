package triage_test

import (
	"encoding/base64"
	"net/http"
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
// and embedding tables cannot index: the session and the triage probe (run
// in probe goroutines, where a panic would end the process) both finish.
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
