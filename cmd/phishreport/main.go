// Command phishreport runs the complete reproduction — corpus generation,
// model training with the paper's protocols, the full crawl, and every
// analysis — and writes a paper-vs-measured Markdown report suitable for
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/fielddata"
	"repro/internal/metrics"
	"repro/internal/pagegen"
	"repro/internal/report"
	"repro/internal/sessionio"
	"repro/internal/termclass"
	"repro/internal/textclass"
	"repro/internal/triage"
	"repro/internal/vision"
)

func main() {
	numSites := flag.Int("sites", 5000, "corpus size")
	seed := flag.Int64("seed", 42, "seed")
	workers := flag.Int("workers", 30, "sessions computing at once (up to 4x this many in flight)")
	out := flag.String("o", "", "output file (default stdout)")
	detScale := flag.Int("detector-scale", 2000, "detector training pages (paper protocol: 10,000)")
	triageOn := flag.Bool("triage", false, "crawl through the triage funnel and report the campaign-attribution table")
	flag.Parse()

	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "\n## %s\n\n", title) }
	code := func(s string) { fmt.Fprintf(&b, "```\n%s```\n", s) }

	fmt.Fprintf(&b, "# PhishInPatterns — Reproduction Report\n\n")
	fmt.Fprintf(&b, "Corpus: %d sites, seed %d, %d workers.\n", *numSites, *seed, *workers)
	// The report is a pure function of its flags; when and how fast it ran
	// go to stderr.
	fmt.Fprintf(os.Stderr, "Generated %s.\n", metrics.Now().UTC().Format(time.RFC3339))

	// Model evaluations with the paper's protocols.
	section("Table 6 — input-field classifier (1,000 train / 310 test)")
	corpus := fielddata.Corpus(*seed)
	train, test := fielddata.Split(corpus)
	m, err := textclass.Train(train, textclass.TrainConfig{Seed: *seed, Epochs: 40})
	if err != nil {
		log.Fatal(err)
	}
	conf := metrics.NewConfusion()
	for _, s := range test {
		pred, _ := m.Predict(s.Text)
		conf.Add(s.Label, pred)
	}
	code(report.Table6(conf))

	section("Table 5 — CAPTCHA/button/logo detector (generated-page protocol)")
	det, err := vision.Train(pagegen.GenerateSet(*detScale, *seed+1, pagegen.Config{}), *seed+2)
	if err != nil {
		log.Fatal(err)
	}
	val := vision.Evaluate(det, pagegen.GenerateSet(*detScale/10, *seed+3, pagegen.Config{}))
	testRes := vision.Evaluate(det, pagegen.GenerateSet(*detScale/5, *seed+4, pagegen.Config{}))
	fmt.Fprintf(&b, "Validation mean AP %.1f (paper 91.9); test mean AP %.1f (paper 92.0)\n\n", val.MeanAP*100, testRes.MeanAP*100)
	code(report.Table5(testRes))

	section("Terminal-page classifier (200 train / 100 test, reject 0.65)")
	tcl, err := termclass.Train(*seed + 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(&b, "Accuracy: %.1f%% (paper: 97%%)\n", tcl.Evaluate(*seed+6, termclass.TestSize)*100)

	// Full crawl.
	copts := core.Options{NumSites: *numSites, Seed: *seed, Workers: *workers, DetectorTrainPages: 600}
	if *triageOn {
		copts.Triage = &triage.Options{}
	}
	p, err := core.NewPipeline(copts)
	if err != nil {
		log.Fatal(err)
	}
	p.Crawl(0)
	logs := p.Logs

	section("Crawl statistics (Section 4.6)")
	fmt.Fprintf(os.Stderr, "Crawled %d sites in %s with %d workers (%.0f sites/day extrapolated; paper: >1,000/day on 30 sessions).\n",
		p.Stats.Sites, p.Stats.Elapsed.Round(time.Millisecond), *workers, p.Stats.SitesPerDay())
	fmt.Fprintf(&b, "Outcomes: %v\n", p.Stats.Outcomes)

	section("Per-stage latency (session-logical clock)")
	code(report.StageTable(logs))
	section("Session timeline (deepest crawl session)")
	code(report.SessionTimeline(report.PickTimelineSession(logs)))

	section("Table 1 — crawling summary")
	code(report.Table1(analysis.Summarize(p.Feed, logs), *numSites))
	section("Table 2 — business categories")
	code(report.Table2(analysis.CategoryCounts(logs), *numSites))
	section("Table 3 — brand impersonation vs cloning")
	code(report.Table3(analysis.Cloning(logs, p.Gallery, brands.Table3Brands(), 50)))
	tc := analysis.Termination(logs, p.TermClassifier)
	section("Table 4 — terminal-redirect domains")
	code(report.Table4(tc, *numSites))
	section("Table 7 — top targeted brands")
	code(report.Table7(analysis.BrandCounts(logs), *numSites))
	section("Figure 7 — input-field distribution")
	code(report.Figure7(analysis.FieldsAcrossPages(logs), *numSites))
	section("Figure 8 — multi-step page counts")
	code(report.Figure8(analysis.PageCountHistogram(logs), *numSites))
	section("Figure 9 — fields per stage")
	code(report.Figure9(analysis.FieldsPerStage(logs)))
	section("Section 5 scalar measurements")
	code(report.SectionRates(
		analysis.Obfuscation(logs),
		analysis.Keylogging(logs),
		analysis.DoubleLoginCount(logs),
		analysis.ClickThrough(logs),
		analysis.Captchas(logs, p.CaptchaAnalysisOptions()),
		analysis.TwoFactor(logs),
		tc, *numSites))
	fmt.Fprintf(&b, "\nCampaign clusters: %d measured | %d generated | 8,472 paper.\n",
		analysis.ClusterCampaigns(logs), p.Corpus.Campaigns)

	if t := report.TriageTable(logs); t != "" {
		section("Triage funnel and campaign attribution")
		code(t)
	}

	if *out == "" {
		fmt.Print(b.String())
		return
	}
	// Atomic replace: a crash mid-write must never leave a truncated
	// report over a previous complete one.
	if err := sessionio.WriteRaw(*out, []byte(b.String())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}
