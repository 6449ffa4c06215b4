// Command phishanalyze runs the measurement end-to-end and prints any of
// the paper's tables and figures, with the paper's published values beside
// the measured ones.
//
// Usage:
//
//	phishanalyze -sites 2000 -all
//	phishanalyze -sites 2000 -table 3 -figure 8
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/report"
	"repro/internal/sessionio"
)

func main() {
	numSites := flag.Int("sites", 1000, "corpus size")
	seed := flag.Int64("seed", 42, "seed")
	workers := flag.Int("workers", 30, "sessions computing at once; a new one starts whenever a worker would go idle, up to 64 in flight per worker that can compute at once (min(workers, GOMAXPROCS))")
	table := flag.Int("table", 0, "print one table (1-7)")
	figure := flag.Int("figure", 0, "print one figure (7-9)")
	all := flag.Bool("all", false, "print everything")
	in := flag.String("i", "", "analyze previously saved session logs (JSON Lines) instead of crawling")
	flag.Parse()
	if *table == 0 && *figure == 0 {
		*all = true
	}

	p, err := core.NewPipeline(core.Options{NumSites: *numSites, Seed: *seed, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	var logs []*crawler.SessionLog
	if *in != "" {
		logs, err = sessionio.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d saved sessions from %s (corpus regenerated for models only)\n\n", len(logs), *in)
	} else {
		p.Crawl(0)
		logs = p.Logs
	}
	n := *numSites

	want := func(t int) bool { return *all || *table == t }
	wantFig := func(f int) bool { return *all || *figure == f }

	if want(1) {
		fmt.Println(report.Table1(analysis.Summarize(p.Feed, logs), n))
	}
	if want(2) {
		fmt.Println(report.Table2(analysis.CategoryCounts(logs), n))
	}
	if want(3) {
		fmt.Println(report.Table3(analysis.Cloning(logs, p.Gallery, brands.Table3Brands(), 50)))
	}
	tc := analysis.Termination(logs, p.TermClassifier)
	if want(4) {
		fmt.Println(report.Table4(tc, n))
	}
	if want(7) {
		fmt.Println(report.Table7(analysis.BrandCounts(logs), n))
	}
	if wantFig(7) {
		fmt.Println(report.Figure7(analysis.FieldsAcrossPages(logs), n))
	}
	if wantFig(8) {
		fmt.Println(report.Figure8(analysis.PageCountHistogram(logs), n))
	}
	if wantFig(9) {
		fmt.Println(report.Figure9(analysis.FieldsPerStage(logs)))
	}
	if *all {
		fmt.Println(report.SectionRates(
			analysis.Obfuscation(logs),
			analysis.Keylogging(logs),
			analysis.DoubleLoginCount(logs),
			analysis.ClickThrough(logs),
			analysis.Captchas(logs, p.CaptchaAnalysisOptions()),
			analysis.TwoFactor(logs),
			tc, n))
		fmt.Println(report.SubmitMethods(analysis.SubmitMethodBreakdown(logs)))
		fmt.Printf("Campaign clusters (perceptual hash): %d measured | %d generated | 8,472 paper\n",
			analysis.ClusterCampaigns(logs), p.Corpus.Campaigns)
	}
}
