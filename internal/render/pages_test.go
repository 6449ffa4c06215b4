package render_test

import (
	"bytes"
	"testing"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/sitegen"
)

// These tests live in the external package because sitegen, which builds
// the page corpus, imports render.

// corpusPage is one page of a generated site: its parsed document and the
// site's PXI resources.
type corpusPage struct {
	doc    *dom.Node
	images map[string][]byte
}

// corpus parses every page of a seeded sitegen corpus.
func corpus(sites int, seed int64) []corpusPage {
	var pages []corpusPage
	for _, s := range sitegen.Generate(sitegen.ScaledParams(sites, seed)).Sites {
		for _, p := range s.Pages {
			pages = append(pages, corpusPage{doc: dom.Parse(p.HTML), images: s.Images})
		}
	}
	return pages
}

// runsResolver validates a page's images into runs as they are asked for,
// the way a page load holds them.
func runsResolver(images map[string][]byte) func(string) *raster.Runs {
	return func(u string) *raster.Runs {
		if r, err := raster.ParseRuns(images[u]); err == nil {
			return r
		}
		return nil
	}
}

// TestRenderRunsMatchesDecoded renders every page of a 40-site corpus with
// its images resolved as runs and as decoded images, and requires the same
// screenshot.
func TestRenderRunsMatchesDecoded(t *testing.T) {
	var painted int
	for i, p := range corpus(40, 42) {
		decoded := func(u string) *raster.Image {
			if im, err := raster.Decode(p.images[u]); err == nil {
				return im
			}
			return nil
		}
		got := render.Render(p.doc, browser.ViewportWidth, runsResolver(p.images))
		want := render.Render(p.doc, browser.ViewportWidth, decoded)
		if got.Screenshot.W != want.Screenshot.W || got.Screenshot.H != want.Screenshot.H ||
			!bytes.Equal(got.Screenshot.Bytes(), want.Screenshot.Bytes()) {
			t.Fatalf("page %d: screenshot painted from runs differs from the decoded images'", i)
		}
		if len(p.images) > 0 {
			painted++
		}
	}
	if painted == 0 {
		t.Fatal("test invalid: no page has an image")
	}
}

// BenchmarkRenderPages renders every page of a 60-site corpus at the
// crawler's viewport width, each page's images validated into runs as the
// renderer asks for them and painted straight into the screenshot; ns/op
// is per page. Each rendering goes back to its pools, as the crawler's
// pooled sessions hand theirs back.
func BenchmarkRenderPages(b *testing.B) {
	pages := corpus(60, 42)
	resolvers := make([]func(string) *raster.Runs, len(pages))
	for i, p := range pages {
		resolvers[i] = runsResolver(p.images)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pages)
		render.Render(pages[k].doc, browser.ViewportWidth, resolvers[k]).Release()
	}
}
