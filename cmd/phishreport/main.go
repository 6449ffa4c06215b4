// Command phishreport runs the complete reproduction — corpus generation,
// model training with the paper's protocols, the full crawl, and every
// analysis — and writes a paper-vs-measured Markdown report suitable for
// EXPERIMENTS.md. With -i it reports a saved crawl instead of crawling
// one: a phishcrawl -o JSON Lines export or a phishcrawl -journal
// directory, from the same -sites and -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/fielddata"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/pagegen"
	"repro/internal/report"
	"repro/internal/sessionio"
	"repro/internal/termclass"
	"repro/internal/textclass"
	"repro/internal/triage"
	"repro/internal/vision"
)

// config is the part of the command line the report's bytes depend on.
type config struct {
	sites    int
	seed     int64
	workers  int
	detScale int
	triage   bool
}

func main() {
	var c config
	flag.IntVar(&c.sites, "sites", 5000, "corpus size")
	flag.Int64Var(&c.seed, "seed", 42, "seed")
	flag.IntVar(&c.workers, "workers", 30, "sessions computing at once; a new one starts whenever a worker would go idle, up to 64 in flight per worker that can compute at once (min(workers, GOMAXPROCS))")
	out := flag.String("o", "", "output file (default stdout)")
	flag.IntVar(&c.detScale, "detector-scale", 2000, "detector training pages (paper protocol: 10,000)")
	flag.BoolVar(&c.triage, "triage", false, "crawl through the triage funnel and report the campaign-attribution table")
	in := flag.String("i", "", "report the sessions saved at this path (a phishcrawl -o JSON Lines file or -journal directory, crawled with the same -sites and -seed) instead of crawling")
	flag.Parse()

	// The report is a pure function of its flags and sessions; when and
	// how fast it ran go to stderr.
	fmt.Fprintf(os.Stderr, "Generated %s.\n", metrics.Now().UTC().Format(time.RFC3339))
	p, logs, err := sessions(c, *in)
	if err != nil {
		log.Fatal(err)
	}
	text, err := paperReport(c, p, logs)
	if err != nil {
		log.Fatal(err)
	}

	if *out == "" {
		fmt.Print(text)
		return
	}
	// Atomic replace: a crash mid-write must never leave a truncated
	// report over a previous complete one.
	if err := sessionio.WriteRaw(*out, []byte(text)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}

// sessions builds the pipeline and returns the sessions to report: a
// fresh crawl of its feed when in is empty, otherwise the sessions saved
// at in, which must come from this feed. Reading them builds no triage
// plan: the saved sessions already carry their triage verdicts.
func sessions(c config, in string) (*core.Pipeline, []*crawler.SessionLog, error) {
	opts := core.Options{NumSites: c.sites, Seed: c.seed, Workers: c.workers, DetectorTrainPages: 600}
	if c.triage && in == "" {
		opts.Triage = &triage.Options{}
	}
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, nil, err
	}
	if in == "" {
		p.Crawl(0)
		fmt.Fprintf(os.Stderr, "Crawled %d sites in %s with %d workers (%.0f sites/day extrapolated; paper: >1,000/day on 30 sessions).\n",
			p.Stats.Sites, p.Stats.Elapsed.Round(time.Millisecond), c.workers, p.Stats.SitesPerDay())
		return p, p.Logs, nil
	}
	logs, err := readSessions(in)
	if err == nil && len(logs) == 0 {
		err = errors.New("no sessions")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("-i %s: %w", in, err)
	}
	if err := checkFeed(p.Feed.URLs(), logs); err != nil {
		return nil, nil, fmt.Errorf("-i %s with -sites %d -seed %d: %w", in, c.sites, c.seed, err)
	}
	fmt.Fprintf(os.Stderr, "Loaded %d sessions from %s.\n", len(logs), in)
	return p, logs, nil
}

// readSessions loads the sessions at path: a journal if path is a
// directory, a JSON Lines export otherwise. A journal is only read, never
// written: a torn tail left by a killed crawl ends the read, and a
// directory without segments is refused as it is.
func readSessions(path string) ([]*crawler.SessionLog, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return sessionio.ReadFile(path)
	}
	return journal.ReadSessions(path)
}

// checkFeed refuses sessions crawled from another feed: each one's
// SeedURL must be the feed URL at its FeedIndex. The tables read the
// sessions beside the regenerated corpus (Table 1's feed counts, the
// campaign count, the per-site denominators), so sessions of another
// corpus would print two corpora's numbers side by side.
func checkFeed(urls []string, logs []*crawler.SessionLog) error {
	for _, l := range logs {
		if i := l.FeedIndex; i < 0 || i >= len(urls) || urls[i] != l.SeedURL {
			return fmt.Errorf("session for %s at feed index %d was not crawled from this feed", l.SeedURL, i)
		}
	}
	return nil
}

// paperReport renders the reproduction report: the model evaluations
// under the paper's protocols, then every table and figure over logs.
// It reads nothing of how logs were obtained, so a crawl and a saved copy
// of it report the same bytes.
func paperReport(c config, p *core.Pipeline, logs []*crawler.SessionLog) (string, error) {
	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "\n## %s\n\n", title) }
	code := func(s string) { fmt.Fprintf(&b, "```\n%s```\n", s) }

	fmt.Fprintf(&b, "# PhishInPatterns — Reproduction Report\n\n")
	fmt.Fprintf(&b, "Corpus: %d sites, seed %d, %d workers.\n", c.sites, c.seed, c.workers)

	// Model evaluations with the paper's protocols.
	section("Table 6 — input-field classifier (1,000 train / 310 test)")
	corpus := fielddata.Corpus(c.seed)
	train, test := fielddata.Split(corpus)
	m, err := textclass.Train(train, textclass.TrainConfig{Seed: c.seed, Epochs: 40})
	if err != nil {
		return "", err
	}
	conf := metrics.NewConfusion()
	for _, s := range test {
		pred, _ := m.Predict(s.Text)
		conf.Add(s.Label, pred)
	}
	code(report.Table6(conf))

	section("Table 5 — CAPTCHA/button/logo detector (generated-page protocol)")
	det, err := vision.Train(pagegen.GenerateSet(c.detScale, c.seed+1, pagegen.Config{}), c.seed+2)
	if err != nil {
		return "", err
	}
	val := vision.Evaluate(det, pagegen.GenerateSet(c.detScale/10, c.seed+3, pagegen.Config{}))
	testRes := vision.Evaluate(det, pagegen.GenerateSet(c.detScale/5, c.seed+4, pagegen.Config{}))
	fmt.Fprintf(&b, "Validation mean AP %.1f (paper 91.9); test mean AP %.1f (paper 92.0)\n\n", val.MeanAP*100, testRes.MeanAP*100)
	code(report.Table5(testRes))

	section("Terminal-page classifier (200 train / 100 test, reject 0.65)")
	tcl, err := termclass.Train(c.seed + 5)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Accuracy: %.1f%% (paper: 97%%)\n", tcl.Evaluate(c.seed+6, termclass.TestSize)*100)

	section("Crawl statistics (Section 4.6)")
	fmt.Fprintf(&b, "Outcomes: %v\n", farm.Tally(logs).Outcomes)

	section("Per-stage latency (session-logical clock)")
	code(report.StageTable(logs))
	section("Session timeline (deepest crawl session)")
	code(report.SessionTimeline(report.PickTimelineSession(logs)))

	n := c.sites
	section("Table 1 — crawling summary")
	code(report.Table1(analysis.Summarize(p.Feed, logs), n))
	section("Table 2 — business categories")
	code(report.Table2(analysis.CategoryCounts(logs), n))
	section("Table 3 — brand impersonation vs cloning")
	code(report.Table3(analysis.Cloning(logs, p.Gallery, brands.Table3Brands(), 50)))
	tc := analysis.Termination(logs, p.TermClassifier)
	section("Table 4 — terminal-redirect domains")
	code(report.Table4(tc, n))
	section("Table 7 — top targeted brands")
	code(report.Table7(analysis.BrandCounts(logs), n))
	section("Figure 7 — input-field distribution")
	code(report.Figure7(analysis.FieldsAcrossPages(logs), n))
	section("Figure 8 — multi-step page counts")
	code(report.Figure8(analysis.PageCountHistogram(logs), n))
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
		tc, n))
	fmt.Fprintf(&b, "\nCampaign clusters: %d measured | %d generated | 8,472 paper.\n",
		analysis.ClusterCampaigns(logs), p.Corpus.Campaigns)
	section("Section 4.3 — submit-strategy ladder")
	code(report.SubmitMethods(analysis.SubmitMethodBreakdown(logs)))

	if t := report.TriageTable(logs); t != "" {
		section("Triage funnel and campaign attribution")
		code(t)
	}
	return b.String(), nil
}
