// Package core is the public facade of the PhishInPatterns reproduction:
// it wires the full measurement pipeline of Figure 6 — live phishing feed,
// intelligent crawler (with its trained input-field classifier, OCR engine
// and object detector), crawl farm, and data analyzer — into a single
// Pipeline that callers configure with a corpus size and a seed. The cmd/
// tools, the examples, and the benchmark harness are all thin wrappers over
// this package.
package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/browser"
	"repro/internal/chaos"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/feed"
	"repro/internal/journal"
	"repro/internal/phishserver"
	"repro/internal/sitegen"
	"repro/internal/triage"
)

// Options configures a Pipeline.
type Options struct {
	// NumSites is the corpus size (paper scale: 51,859). Default 1,000.
	NumSites int
	// Seed drives all generation and training randomness.
	Seed int64
	// Workers is the number of sessions the farm computes at once (default
	// 30, the paper's setting); sessions waiting on the network or the
	// journal hold none, and up to 4×Workers are in flight (farm.Config).
	Workers int
	// DetectorTrainPages is the number of generated pages the object
	// detector is fitted on (paper: 10,000). Default 600, which reaches
	// comparable accuracy on this substrate far faster.
	DetectorTrainPages int
	// MaxPagesPerSite bounds each crawl session.
	MaxPagesPerSite int

	// Chaos, when non-nil, wraps the serving transport in the fault
	// injector so the synthetic feed exhibits the dead/slow/flaky/5xx mix
	// a real reported-URL feed does. nil serves a perfectly healthy feed.
	Chaos *chaos.Profile
	// ChaosSeed seeds fault assignment (0 derives Seed+7). Faults are a
	// pure function of (ChaosSeed, host), so runs are reproducible.
	ChaosSeed int64
	// SessionBudget bounds each session's wall clock (0 = crawler
	// default; negative = unlimited).
	SessionBudget time.Duration
	// FetchTimeout bounds each browser fetch (0 = browser default).
	FetchTimeout time.Duration
	// MaxRetries, RetryBase, and RetryMax configure the farm's retry
	// queue (zero values = farm defaults; MaxRetries < 0 disables).
	MaxRetries int
	RetryBase  time.Duration
	RetryMax   time.Duration

	// Triage, when non-nil, enables the pre-session triage funnel
	// (internal/triage): feed URLs are lexically scored, probed once, and
	// clustered into a campaign near-duplicate index before the crawl, and
	// URLs attributed to an indexed campaign (or cut by top-K) take a
	// fast-path session instead of a full browser crawl. The plan is a
	// pure function of (feed, Triage options), so it is identical across
	// worker counts, resumes, and fleet members. nil disables triage.
	Triage *triage.Options
	// MinCampaignSize clamps generated campaign sizes from below — the
	// clone-heavy-feed knob for triage experiments (0 = the paper's
	// distribution). It changes the corpus, so every process in a fleet
	// must agree on it.
	MinCampaignSize int

	// CloakRate is the site-weighted fraction of generated campaigns that
	// cloak: their kits serve a benign decoy unless the request passes the
	// campaign's gate (user-agent, referrer, repeat-visit cookie, language,
	// forwarded-for, or a JS-capability probe). 0 disables cloaking and
	// keeps the corpus byte-identical to earlier seeds. It changes the
	// corpus, so every process in a fleet must agree on it.
	CloakRate float64
	// CloakRetries is the adaptive uncloaking budget: how many re-crawls
	// with a mutated profile a session landing on a benign decoy may spend
	// (0 = honest single crawl, the pre-cloaking behaviour).
	CloakRetries int

	// Models, when non-nil, injects an already-trained model bundle and
	// skips training entirely; the caller vouches that it was trained with
	// this pipeline's Seed and DetectorTrainPages. nil uses the
	// process-wide shared cache (SharedModels), so repeated pipelines with
	// equal params train once.
	Models *Models
}

func (o Options) withDefaults() Options {
	if o.NumSites <= 0 {
		o.NumSites = 1000
	}
	if o.Workers <= 0 {
		o.Workers = farm.DefaultWorkers
	}
	if o.DetectorTrainPages <= 0 {
		o.DetectorTrainPages = 600
	}
	if o.MaxPagesPerSite <= 0 {
		o.MaxPagesPerSite = crawler.DefaultMaxPages
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = o.Seed + 7
	}
	// The farm, crawler and browser defaults resolve here, through the
	// resolvers those layers apply themselves, so the manifest records the
	// values a crawl runs with and not how they were spelled.
	o.SessionBudget = crawler.ResolveSessionBudget(o.SessionBudget)
	o.FetchTimeout = browser.ResolveTimeout(o.FetchTimeout)
	o.MaxRetries, o.RetryBase, o.RetryMax = farm.ResolveRetries(o.MaxRetries, o.RetryBase, o.RetryMax)
	return o
}

// Manifest returns the run manifest: canonical JSON, in a fixed field
// order, of every option that changes session bytes, resolved through the
// same defaults NewPipeline applies. A journal records it before its first
// session and refuses to resume under any other manifest
// (journal.BindRun); a fleet worker presents it with every lease request
// and the coordinator compares it byte for byte. Workers, Models, and the
// CLI's sample, sync and output flags are left out: the byte-identity
// pins show that none of them changes a session. The triage plan needs no
// entry of its own: it is a pure function of the feed and the triage
// options, which the manifest pins.
func (o Options) Manifest() ([]byte, error) {
	o = o.withDefaults()
	return json.Marshal(struct {
		NumSites           int             `json:"numSites"`
		Seed               int64           `json:"seed"`
		DetectorTrainPages int             `json:"detectorTrainPages"`
		MaxPagesPerSite    int             `json:"maxPagesPerSite"`
		Chaos              *chaos.Profile  `json:"chaos"`
		ChaosSeed          int64           `json:"chaosSeed"`
		SessionBudget      time.Duration   `json:"sessionBudget"`
		FetchTimeout       time.Duration   `json:"fetchTimeout"`
		MaxRetries         int             `json:"maxRetries"`
		RetryBase          time.Duration   `json:"retryBase"`
		RetryMax           time.Duration   `json:"retryMax"`
		Triage             *triage.Options `json:"triage"`
		MinCampaignSize    int             `json:"minCampaignSize"`
		CloakRate          float64         `json:"cloakRate"`
		CloakRetries       int             `json:"cloakRetries"`
	}{o.NumSites, o.Seed, o.DetectorTrainPages, o.MaxPagesPerSite, o.Chaos, o.ChaosSeed,
		o.SessionBudget, o.FetchTimeout, o.MaxRetries, o.RetryBase, o.RetryMax,
		o.Triage, o.MinCampaignSize, o.CloakRate, o.CloakRetries})
}

// Pipeline is the assembled measurement system.
type Pipeline struct {
	Opts     Options
	Corpus   *sitegen.Corpus
	Feed     *feed.Feed
	Registry *phishserver.Registry

	// Models is the trained bundle this pipeline crawls with — shared
	// read-only with every other pipeline built from the same params
	// unless Options.Models injected a private one. Its fields are
	// promoted (p.Detector is p.Models.Detector); none may be mutated.
	*Models

	Crawler *crawler.Crawler
	// Injector is the fault-injection layer (nil when Options.Chaos is
	// nil); its FaultFor/Summary expose the injected ground truth.
	Injector *chaos.Injector

	// Triage is the precomputed triage plan (nil when Options.Triage is
	// nil): the per-URL fast-path/full verdicts and the campaign
	// near-duplicate index, derived before any crawl session runs.
	Triage *triage.Plan

	// Monitor, when set before crawling, receives live run progress
	// (completions, retries, panics) for cmd/phishcrawl's status
	// endpoint and progress line. nil disables progress tracking.
	Monitor *farm.Monitor

	// Crawl outputs.
	Logs  []*crawler.SessionLog
	Stats farm.Stats
}

// NewFeed builds only the deterministic URL universe for opts — the
// corpus and feed, no model training, no crawler. It is what a fleet
// coordinator derives its lease ranges from: every process that shares
// (-sites, -seed) derives exactly this feed, so the coordinator can shard
// by index and never ship a URL over the wire.
func NewFeed(opts Options) (*sitegen.Corpus, *feed.Feed) {
	opts = opts.withDefaults()
	params := sitegen.ScaledParams(opts.NumSites, opts.Seed)
	params.MinCampaignSize = opts.MinCampaignSize
	params.CloakRate = opts.CloakRate
	c := sitegen.Generate(params)
	return c, feed.FromCorpus(c, opts.Seed+1)
}

// NewPipeline generates the corpus, trains every model, and assembles the
// crawler; call Crawl to run the measurement.
func NewPipeline(opts Options) (*Pipeline, error) {
	opts = opts.withDefaults()
	p := &Pipeline{Opts: opts}

	// Corpus and feed.
	p.Corpus, p.Feed = NewFeed(opts)

	// Serving registry: every phishing site plus the benign hosts terminal
	// redirects land on.
	p.Registry = phishserver.NewRegistry()
	for _, s := range p.Corpus.Sites {
		p.Registry.AddSite(s)
	}
	for _, b := range brands.All() {
		p.Registry.AddBenignHost(b.LegitDomain)
	}
	for _, h := range []string{"example.com", "example.org", "example.net", "google.com", "youtube.com", "yahoo.com", "godaddy.com", "live.com"} {
		p.Registry.AddBenignHost(h)
	}

	// Models: an injected bundle wins; otherwise the process-wide cache
	// returns (and on first use trains) the bundle for this pipeline's
	// params, so repeated NewPipeline calls — bench iterations, resume
	// runs, worker fleets — stop retraining identical models.
	m := opts.Models
	if m == nil {
		var err error
		m, err = SharedModels(ModelParams{Seed: opts.Seed, DetectorTrainPages: opts.DetectorTrainPages})
		if err != nil {
			return nil, err
		}
	}
	p.Models = m

	// Crawler template. The serving transport is optionally wrapped in
	// the fault injector, scoped to phishing hosts so benign redirect
	// targets stay reachable.
	var transport http.RoundTripper = phishserver.Transport{Registry: p.Registry}
	if opts.Chaos != nil {
		phishHosts := make(map[string]bool, len(p.Corpus.Sites))
		for _, s := range p.Corpus.Sites {
			phishHosts[s.Host] = true
		}
		p.Injector = &chaos.Injector{
			Profile:    *opts.Chaos,
			Seed:       opts.ChaosSeed,
			Inner:      transport,
			InjectHost: func(host string) bool { return phishHosts[host] },
		}
		transport = p.Injector
	}
	p.Crawler = &crawler.Crawler{
		Classifier: p.FieldClassifier,
		Detector:   p.Detector,
		NewBrowser: func() *browser.Browser {
			return browser.New(browser.Options{Transport: transport, Timeout: opts.FetchTimeout})
		},
		MaxPages:      opts.MaxPagesPerSite,
		SessionBudget: opts.SessionBudget,
		FakerSeed:     opts.Seed + 6,
		CloakRetries:  opts.CloakRetries,
		Pool:          crawler.NewSessionPool(),
		Memo:          crawler.NewMemo(),
	}

	// Triage plan: built before any crawl, over the same browser factory
	// (and therefore the same chaos-wrapped transport) the crawler uses.
	// Probing consumes each URL's first connection exactly once per
	// process, which keeps even the injector's stateful flaky-connection
	// budget identical across runs, resumes, and fleet members. The probes
	// share the crawler's memo, so a repeated landing page is rendered
	// once, and the session crawling a campaign's founder finds its
	// landing page's hash and embedding already stored.
	if opts.Triage != nil {
		p.Triage = triage.BuildPlan(p.Feed.URLs(), triage.Config{
			Options:     *opts.Triage,
			Workers:     opts.Workers,
			NewBrowser:  p.Crawler.NewBrowser,
			BrandTokens: brandTokens(),
			Memo:        p.Crawler.Memo,
		})
	}
	return p, nil
}

// brandTokens derives the lowercase brand vocabulary for the lexical
// brand-in-host feature from the brand catalogue: the leading word of each
// brand name plus the registrable label of its legitimate domain, deduped
// and sorted so the scorer's input is deterministic.
func brandTokens() []string {
	seen := map[string]bool{}
	var out []string
	add := func(tok string) {
		tok = strings.ToLower(tok)
		tok = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, tok)
		if len(tok) >= 3 && !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	for _, b := range brands.All() {
		add(strings.Fields(b.Name)[0])
		add(strings.SplitN(b.LegitDomain, ".", 2)[0])
	}
	sort.Strings(out)
	return out
}

// farmConfig assembles the farm configuration from the pipeline options.
func (p *Pipeline) farmConfig() farm.Config {
	cfg := farm.Config{
		Workers:    p.Opts.Workers,
		Crawler:    p.Crawler,
		MaxRetries: p.Opts.MaxRetries,
		RetryBase:  p.Opts.RetryBase,
		RetryMax:   p.Opts.RetryMax,
		RetrySeed:  p.Opts.Seed + 8,
		Monitor:    p.Monitor,
	}
	if p.Triage != nil {
		cfg.FastPath = p.Triage.FastPath
	}
	return cfg
}

// Crawl crawls the first n feed URLs (0 = all) and keeps their logs in
// memory, in feed order, with feed metadata attached.
func (p *Pipeline) Crawl(n int) {
	_, _ = p.crawl(0, p.feedPrefix(n), nil, nil) // in-memory crawls cannot fail
}

// CrawlJournal crawls up to sample feed URLs (0 = all), streaming every
// finished session into j the moment it completes instead of accumulating
// logs in memory — the run-level durability layer for a 43-day crawl. URLs
// the journal already holds are skipped, so reopening the journal of an
// interrupted run resumes it: only incomplete URLs are re-crawled, and
// because per-session seeds derive from feed indices, the resumed sessions
// are identical to the ones an uninterrupted run would have produced. The
// journal must hold this run's manifest or none (journal.BindRun), so a
// resume under changed flags is refused. p.Stats reports THIS run only
// (totals over every run come from the journal's sessions, farm.Tally);
// p.Logs stays nil. Returns how many URLs were skipped as already
// complete.
func (p *Pipeline) CrawlJournal(j *journal.Journal, sample int) (skipped int, err error) {
	return p.crawl(0, p.feedPrefix(sample), nil, j)
}

// CrawlJournalShard is the fleet-worker crawl: it crawls only the feed
// indices in [start, end), skipping URLs in done (the coordinator's
// already-journaled set) and URLs the shard journal itself holds (a
// resumed shard directory). Per-session seeds still derive from global
// feed indices, so a shard's sessions are byte-identical to the same
// sessions in a single-process run.
func (p *Pipeline) CrawlJournalShard(j *journal.Journal, start, end int, done map[string]bool) error {
	if n := len(p.Feed.URLs()); start < 0 || end > n || start > end {
		return fmt.Errorf("core: shard range [%d,%d) outside feed of %d URLs", start, end, n)
	}
	_, err := p.crawl(start, end, done, j)
	return err
}

// feedPrefix returns how many feed URLs a crawl of the first n covers
// (0 = all).
func (p *Pipeline) feedPrefix(n int) int {
	if total := len(p.Feed.URLs()); n <= 0 || n > total {
		return total
	}
	return n
}

// crawl is the one crawl body behind every entry point. It crawls feed
// indices [start, end), skipping URLs in done. With j nil the logs stay in
// p.Logs; otherwise j is bound to this run's manifest, the URLs it already
// holds are skipped too, and each finished session streams into it; the
// journal holds sessions only, and p.Stats stays this process's own. Feed
// metadata and triage verdicts are attached either way. Returns how many
// URLs in the range were skipped.
func (p *Pipeline) crawl(start, end int, done map[string]bool, j *journal.Journal) (skipped int, err error) {
	urls := p.Feed.URLs()[:end]
	if j != nil {
		manifest, err := p.Opts.Manifest()
		if err != nil {
			return 0, fmt.Errorf("core: encoding run manifest: %w", err)
		}
		if err := j.BindRun(manifest); err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
	}
	skip := func(u string) bool { return done[u] || (j != nil && j.Completed(u)) }
	for _, u := range urls[start:] {
		if skip(u) {
			skipped++
		}
	}
	p.Monitor.AddPreCompleted(skipped)
	byURL := analysis.MetaIndex(p.Feed.Filter())
	var logs []*crawler.SessionLog
	if j == nil {
		logs = make([]*crawler.SessionLog, len(urls))
	}
	cfg := p.farmConfig()
	cfg.Skip = func(idx int, u string) bool { return idx < start || skip(u) }
	// The sink touches only its own session and log slot, or the journal,
	// whose commit loop serializes and batches appends, so concurrent
	// delivery needs no lock.
	cfg.Sink = func(idx int, lg *crawler.SessionLog) error {
		analysis.AttachMetaIndexed(lg, byURL)
		p.Triage.Stamp(lg)
		if j == nil {
			logs[idx] = lg
			return nil
		}
		return j.AppendSession(lg)
	}
	p.Stats, err = farm.RunStream(cfg, urls)
	p.Logs = logs
	if err != nil {
		return skipped, fmt.Errorf("core: journaling crawl: %w", err)
	}
	return skipped, nil
}

// CaptchaAnalysisOptions returns the configured verification options for
// analysis.Captchas.
func (p *Pipeline) CaptchaAnalysisOptions() analysis.CaptchaOptions {
	return analysis.CaptchaOptions{Exemplars: p.CaptchaExemplars}
}
