package sitegen

import (
	"repro/internal/dom"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/site"
)

// RenderPage renders one of a site's pages offline (no HTTP), resolving
// image resources from the site's own image map. Used by calibration tests
// and the Table 3 analysis when screenshots are needed without a crawl.
func RenderPage(s *site.Site, html string, viewportW int) *raster.Image {
	doc := dom.Parse(html)
	page := render.Render(doc, viewportW, func(u string) *raster.Runs {
		if data, ok := s.Images[u]; ok {
			if r, err := raster.ParseRuns(data); err == nil {
				return r
			}
		}
		return nil
	})
	return page.Screenshot
}

// RenderLanding renders the site's first page at the standard viewport.
func RenderLanding(s *site.Site) *raster.Image {
	return RenderPage(s, s.Pages[0].HTML, 800)
}
