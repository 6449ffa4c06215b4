package triage_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/feed"
	"repro/internal/phishserver"
	"repro/internal/site"
	"repro/internal/sitegen"
	"repro/internal/triage"
)

// testUniverse generates a clone-heavy corpus, serves it, and returns the
// feed URLs, the URL -> site ground truth, and a browser factory over the
// serving transport — the same wiring core.NewPipeline does, minus model
// training.
func testUniverse(t testing.TB, numSites, minCampaign int) ([]string, map[string]*site.Site, func() *browser.Browser) {
	t.Helper()
	urls, bySeed, transport := testFeed(numSites, minCampaign)
	return urls, bySeed, browserOver(transport)
}

// testFeed is testUniverse returning the serving transport itself.
func testFeed(numSites, minCampaign int) ([]string, map[string]*site.Site, http.RoundTripper) {
	params := sitegen.ScaledParams(numSites, 42)
	params.MinCampaignSize = minCampaign
	c := sitegen.Generate(params)
	reg := phishserver.NewRegistry()
	for _, s := range c.Sites {
		reg.AddSite(s)
	}
	f := feed.FromCorpus(c, 43)
	bySeed := map[string]*site.Site{}
	for _, e := range f.Filter() {
		bySeed[e.URL] = e.Site
	}
	return f.URLs(), bySeed, phishserver.Transport{Registry: reg}
}

func browserOver(transport http.RoundTripper) func() *browser.Browser {
	return func() *browser.Browser { return browser.New(browser.Options{Transport: transport}) }
}

func buildPlan(t testing.TB, urls []string, nb func() *browser.Browser, opts triage.Options, workers int) *triage.Plan {
	t.Helper()
	return triage.BuildPlan(urls, triage.Config{
		Options:    opts,
		Workers:    workers,
		NewBrowser: nb,
	})
}

// TestBuildPlanDeterministicAcrossWorkers is the plan-level byte-determinism
// pin: the plan is a pure function of (feed, config), so 1 probe worker and
// 8 probe workers must encode identically.
func TestBuildPlanDeterministicAcrossWorkers(t *testing.T) {
	urls, _, nb := testUniverse(t, 60, 6)
	p1 := buildPlan(t, urls, nb, triage.Options{}, 1)
	p8 := buildPlan(t, urls, nb, triage.Options{}, 8)
	b1, err := p1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b8, err := p8.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("plan diverged across probe worker counts:\n1 worker:  %s\n8 workers: %s", b1, b8)
	}
}

// TestBuildPlanClusterPurity measures the campaign index against the
// sitegen ground truth on a clone-heavy feed: sites deployed from the same
// kit template must land in one triage cluster (purity), and the funnel
// must fast-path the clones (session reduction).
func TestBuildPlanClusterPurity(t *testing.T) {
	const numSites, minCampaign = 120, 10
	urls, bySeed, nb := testUniverse(t, numSites, minCampaign)
	p := buildPlan(t, urls, nb, triage.Options{}, 8)

	f := p.Funnel()
	if f.Total != len(urls) {
		t.Fatalf("funnel total %d != feed %d", f.Total, len(urls))
	}
	if f.Cut != 0 {
		t.Fatalf("funnel cut %d without -triage-topk", f.Cut)
	}
	// ~12 kit campaigns of ~10 deployments each: one full session founds
	// each campaign, the clones fast-path. Require the >= 5x reduction the
	// funnel is built for.
	if f.Full*5 > f.Total {
		t.Fatalf("full sessions %d of %d: want >= 5x reduction (funnel %+v)", f.Full, f.Total, f)
	}

	// Purity: of the sites sharing one triage cluster, what fraction share
	// the dominant ground-truth kit campaign. Completeness: of the sites
	// sharing one kit campaign, what fraction landed in its dominant triage
	// cluster.
	byCluster := map[string]map[string]int{}
	byKit := map[string]map[string]int{}
	members := 0
	for _, e := range p.Entries {
		if e.Campaign == "" {
			continue
		}
		s := bySeed[e.URL]
		if s == nil {
			t.Fatalf("feed URL %s has no backing site", e.URL)
		}
		if byCluster[e.Campaign] == nil {
			byCluster[e.Campaign] = map[string]int{}
		}
		byCluster[e.Campaign][s.CampaignID]++
		if byKit[s.CampaignID] == nil {
			byKit[s.CampaignID] = map[string]int{}
		}
		byKit[s.CampaignID][e.Campaign]++
		members++
	}
	dominant := func(counts map[string]int) int {
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		return best
	}
	pureSum, kitSum := 0, 0
	for _, counts := range byCluster {
		pureSum += dominant(counts)
	}
	for _, counts := range byKit {
		kitSum += dominant(counts)
	}
	purity := float64(pureSum) / float64(members)
	completeness := float64(kitSum) / float64(members)
	t.Logf("clusters=%d kits=%d members=%d purity=%.3f completeness=%.3f funnel=%+v",
		len(byCluster), len(byKit), members, purity, completeness, f)
	if purity < 0.95 {
		t.Errorf("cluster purity %.3f, want >= 0.95", purity)
	}
	if completeness < 0.90 {
		t.Errorf("cluster completeness %.3f, want >= 0.90", completeness)
	}
}

// TestBuildPlanTopKCut pins the lexical stage: -triage-topk keeps exactly K
// entries, cuts the rest, and cut entries fast-path to triaged-out logs
// without ever being probed.
func TestBuildPlanTopKCut(t *testing.T) {
	urls, _, nb := testUniverse(t, 40, 5)
	const topK = 10
	p := buildPlan(t, urls, nb, triage.Options{TopK: topK}, 4)
	f := p.Funnel()
	if f.Cut != len(urls)-topK {
		t.Fatalf("cut %d entries, want %d (topK %d of %d)", f.Cut, len(urls)-topK, topK, len(urls))
	}
	for i, e := range p.Entries {
		if e.Decision != triage.DecisionCut {
			continue
		}
		lg := p.FastPath(i, urls[i])
		if lg == nil || lg.Outcome != crawler.OutcomeTriagedOut {
			t.Fatalf("cut entry %d: FastPath = %+v, want a %s log", i, lg, crawler.OutcomeTriagedOut)
		}
		if lg.TriageScore != e.Score {
			t.Fatalf("cut entry %d: log score %g != plan score %g", i, lg.TriageScore, e.Score)
		}
	}
}

// TestFastPathAndStamp covers the farm-facing surface: attributed entries
// synthesize a one-page session carrying the probe fingerprint, full
// entries return nil and are stamped after their real session finishes.
func TestFastPathAndStamp(t *testing.T) {
	urls, _, nb := testUniverse(t, 60, 6)
	p := buildPlan(t, urls, nb, triage.Options{}, 4)

	attributed, full := -1, -1
	for i, e := range p.Entries {
		switch e.Decision {
		case triage.DecisionAttributed:
			if attributed < 0 {
				attributed = i
			}
		case triage.DecisionFull:
			if full < 0 {
				full = i
			}
		}
	}
	if attributed < 0 || full < 0 {
		t.Fatalf("clone-heavy plan has attributed=%d full=%d entries", attributed, full)
	}

	lg := p.FastPath(attributed, urls[attributed])
	if lg == nil || lg.Outcome != crawler.OutcomeAttributed {
		t.Fatalf("FastPath(attributed) = %+v, want an %s log", lg, crawler.OutcomeAttributed)
	}
	if lg.TriageCampaign == "" || lg.TriageSimilarity == 0 {
		t.Fatalf("attributed log missing campaign/similarity: %+v", lg)
	}
	if len(lg.Pages) != 1 || lg.Pages[0].DOMHash == "" {
		t.Fatalf("attributed log should carry the probe's page, got %+v", lg.Pages)
	}
	// Fresh log per call: the farm mutates completion fields in place.
	if again := p.FastPath(attributed, urls[attributed]); again == lg {
		t.Fatal("FastPath returned the same log twice")
	}

	if got := p.FastPath(full, urls[full]); got != nil {
		t.Fatalf("FastPath(full) = %+v, want nil", got)
	}
	if got := p.FastPath(full, "http://wrong.test/"); got != nil {
		t.Fatalf("FastPath with mismatched URL = %+v, want nil", got)
	}

	session := &crawler.SessionLog{SeedURL: urls[full], FeedIndex: full, Outcome: crawler.OutcomeCompleted}
	p.Stamp(session)
	if session.TriageScore != p.Entries[full].Score {
		t.Fatalf("Stamp score %g != plan %g", session.TriageScore, p.Entries[full].Score)
	}
	if session.TriageCampaign != p.Entries[full].Campaign {
		t.Fatalf("Stamp campaign %q != plan %q", session.TriageCampaign, p.Entries[full].Campaign)
	}
}

// TestEncodeDistinguishesPlans keeps the byte-determinism pin above
// meaningful: plans built under different triage options must encode
// differently, and a plan's encoding must be stable.
func TestEncodeDistinguishesPlans(t *testing.T) {
	urls, _, nb := testUniverse(t, 40, 5)
	p := buildPlan(t, urls, nb, triage.Options{}, 4)
	other := buildPlan(t, urls, nb, triage.Options{TopK: 5}, 4)
	enc := func(pl *triage.Plan) []byte {
		t.Helper()
		b, err := pl.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bytes.Equal(enc(p), enc(other)) {
		t.Fatal("plans built under different options encode identically")
	}
	if !bytes.Equal(enc(p), enc(p)) {
		t.Fatal("a plan's encoding is not stable")
	}
}

// planBytes returns p's encoding and the JSON of every entry's fast-path
// log, which carries the probe's page hash and embedding.
func planBytes(t testing.TB, p *triage.Plan, urls []string) (string, string) {
	t.Helper()
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*crawler.SessionLog, len(urls))
	for i, u := range urls {
		logs[i] = p.FastPath(i, u)
	}
	fast, err := json.Marshal(logs)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc), string(fast)
}

// TestBuildPlanMemoMatchesNoMemo pins the probe's use of the crawl's page
// memo: a plan whose probes take their looks from a cold memo, from one
// warmed by crawling a separately served copy of the feed, from one
// bounded at two looks (so it overflows on every probe), and from cold
// memos at 1 and at 8 probe workers encodes and fast-paths the same bytes
// as a plan built without a memo.
func TestBuildPlanMemoMatchesNoMemo(t *testing.T) {
	urls, _, nb := testUniverse(t, 60, 6)
	wantEnc, wantFast := planBytes(t, buildPlan(t, urls, nb, triage.Options{}, 4), urls)

	warm := crawler.NewMemo()
	_, _, other := testUniverse(t, 60, 6)
	c := &crawler.Crawler{NewBrowser: other, FakerSeed: 7, Memo: warm}
	for _, u := range urls {
		c.Crawl(u)
	}
	for _, tc := range []struct {
		name    string
		memo    *crawler.Memo
		workers int
	}{
		{"cold", crawler.NewMemo(), 4},
		{"warmed by a crawl", warm, 4},
		{"bounded at 2", crawler.NewBoundedMemo(2), 4},
		{"1 worker", crawler.NewMemo(), 1},
		{"8 workers", crawler.NewMemo(), 8},
	} {
		p := triage.BuildPlan(urls, triage.Config{Workers: tc.workers, NewBrowser: nb, Memo: tc.memo})
		enc, fast := planBytes(t, p, urls)
		if enc != wantEnc {
			t.Errorf("%s: plan diverged from the memo-less plan:\nmemo:    %s\nno memo: %s", tc.name, enc, wantEnc)
		}
		if fast != wantFast {
			t.Errorf("%s: fast-path logs diverged from the memo-less plan's", tc.name)
		}
	}
}

// BenchmarkBuildPlan builds the plan of a 120-site clone-heavy feed at 4
// probe workers without a memo and with a fresh memo per plan: the probe
// layer's cost, and what sharing looks across repeated landing pages saves.
func BenchmarkBuildPlan(b *testing.B) {
	urls, _, nb := testUniverse(b, 120, 10)
	for _, withMemo := range []bool{false, true} {
		name := "no-memo"
		if withMemo {
			name = "memo"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var memo *crawler.Memo
				if withMemo {
					memo = crawler.NewMemo()
				}
				planSink = triage.BuildPlan(urls, triage.Config{Workers: 4, NewBrowser: nb, Memo: memo})
			}
		})
	}
}

var planSink *triage.Plan
