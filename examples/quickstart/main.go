// Quickstart: build the pipeline at a small scale, crawl a handful of
// phishing sites, and print the UX transcript of one multi-stage session —
// the fastest way to see the intelligent crawler at work.
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	p, err := core.NewPipeline(core.Options{NumSites: 60, Seed: 3, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	p.Crawl(0)

	// Pick the session with the most pages: the richest UX flow.
	best := p.Logs[0]
	for _, l := range p.Logs {
		if len(l.Pages) > len(best.Pages) {
			best = l
		}
	}

	fmt.Printf("Crawled %d sites. Deepest flow: %s (%s, brand %q)\n\n",
		len(p.Logs), best.SiteID, best.SeedURL, best.Brand)
	for _, pg := range best.Pages {
		fmt.Printf("Page %d  %s (status %d)\n", pg.Index+1, pg.URL, pg.Status)
		if len(pg.Fields) == 0 {
			fmt.Printf("  no input fields — advanced via %q\n", pg.SubmitMethod)
		}
		for _, f := range pg.Fields {
			ocr := ""
			if f.UsedOCR {
				ocr = " [label read via OCR]"
			}
			fmt.Printf("  field %-10s (conf %.2f)%s <- forged %q\n", f.Label, f.Confidence, ocr, f.Value)
		}
		if pg.SubmitMethod != "" && len(pg.Fields) > 0 {
			fmt.Printf("  submitted via %q after %d attempt(s)\n", pg.SubmitMethod, pg.DataAttempts)
		}
	}
	fmt.Printf("\nOutcome: %s\n", best.Outcome)
	if analysis.IsMultiPage(best) {
		fmt.Println("This site used the multi-page data-stealing pattern (Section 5.2.1).")
	}
}
