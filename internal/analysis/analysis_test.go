package analysis_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/captcha"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/fieldspec"
	"repro/internal/site"
	"repro/internal/termclass"
)

// The integration pipeline: a 400-site corpus crawled end-to-end, shared by
// every test in this package.
var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

const pipeSites = 400

func pipeline(t testing.TB) *core.Pipeline {
	pipeOnce.Do(func() {
		pipe, pipeErr = core.NewPipeline(core.Options{NumSites: pipeSites, Seed: 11, Workers: 16})
		if pipeErr == nil {
			pipe.Crawl(0)
		}
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

// truthByID indexes corpus ground truth.
func truthByID(p *core.Pipeline) map[string]site.Truth {
	out := map[string]site.Truth{}
	for _, s := range p.Corpus.Sites {
		out[s.ID] = s.Truth
	}
	return out
}

func TestESLD(t *testing.T) {
	cases := map[string]string{
		"http://a.b.example.com/x":  "example.com",
		"http://example.com/":       "example.com",
		"login.chase-3-1.test":      "chase-3-1.test",
		"http://host:8080/p":        "host",
		"v2.netflix-c7.test":        "netflix-c7.test",
		"http://www.google.com/abc": "google.com",
	}
	for in, want := range cases {
		if got := analysis.ESLD(in); got != want {
			t.Errorf("analysis.ESLD(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPipelineCrawledEverything(t *testing.T) {
	p := pipeline(t)
	if len(p.Logs) != pipeSites {
		t.Fatalf("crawled %d sites, want %d", len(p.Logs), pipeSites)
	}
	errors := 0
	for _, l := range p.Logs {
		if l.Outcome == crawler.OutcomeError {
			errors++
		}
		if l.SiteID == "" {
			t.Fatal("metadata not attached")
		}
	}
	if errors > 0 {
		t.Errorf("%d sessions errored", errors)
	}
}

func TestSummaryTable1Shape(t *testing.T) {
	p := pipeline(t)
	s := analysis.Summarize(p.Feed, p.Logs)
	if s.FilteredURLs != pipeSites {
		t.Errorf("filtered = %d, want %d", s.FilteredURLs, pipeSites)
	}
	if s.SeedURLs <= s.FilteredURLs {
		t.Errorf("seeds (%d) should exceed filtered (%d) — the feed carries noise", s.SeedURLs, s.FilteredURLs)
	}
	// The crawler visits more URLs than sites (multi-page flows), as in
	// Table 1 (66,072 crawled URLs from 51,859 sites).
	if s.CrawledURLs <= s.FilteredURLs {
		t.Errorf("crawled URLs (%d) should exceed sites (%d)", s.CrawledURLs, s.FilteredURLs)
	}
	if s.CrawledSLDs == 0 || s.CrawledSLDs > s.CrawledURLs {
		t.Errorf("SLDs = %d", s.CrawledSLDs)
	}
}

func TestCategoryAndBrandHistograms(t *testing.T) {
	p := pipeline(t)
	cats := analysis.CategoryCounts(p.Logs)
	if cats.Total() != pipeSites {
		t.Errorf("category total = %d", cats.Total())
	}
	// Online/Cloud and Financial should lead (Table 2).
	top := cats.SortedByCount()
	if len(top) < 5 {
		t.Fatalf("only %d categories", len(top))
	}
	lead := map[string]bool{top[0].Key: true, top[1].Key: true}
	if !lead[string(brands.OnlineCloud)] && !lead[string(brands.Financial)] {
		t.Errorf("leading categories = %v", top[:2])
	}
	brandsH := analysis.BrandCounts(p.Logs)
	if got := brandsH.SortedByCount()[0].Key; got != "Office365" {
		t.Errorf("top brand = %q, want Office365", got)
	}
}

func TestMultiPageAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	agree, total := 0, 0
	truthMulti, measuredMulti := 0, 0
	for _, l := range p.Logs {
		tr := truths[l.SiteID]
		m := analysis.IsMultiPage(l)
		total++
		if tr.MultiPage {
			truthMulti++
		}
		if m {
			measuredMulti++
		}
		// Measurement can undercount (crawler stuck at a CAPTCHA) but
		// rarely overcounts (double login adds a revisit of the same page,
		// which is a legitimate extra page as the paper also sees).
		if m == tr.MultiPage {
			agree++
		}
	}
	if float64(agree)/float64(total) < 0.85 {
		t.Errorf("multi-page agreement = %d/%d (truth %d vs measured %d)",
			agree, total, truthMulti, measuredMulti)
	}
	rate := float64(measuredMulti) / float64(total)
	if math.Abs(rate-0.45) > 0.12 {
		t.Errorf("measured multi rate = %.2f, want near 0.45", rate)
	}
}

func TestPageCountHistogramShape(t *testing.T) {
	p := pipeline(t)
	h := analysis.PageCountHistogram(p.Logs)
	if len(h) == 0 {
		t.Fatal("empty histogram")
	}
	// 2- and 3-page flows dominate (Figure 8).
	if h[2]+h[3] <= h[4]+h[5] {
		t.Errorf("histogram shape wrong: %v", h)
	}
}

func TestFieldDistributionShape(t *testing.T) {
	p := pipeline(t)
	d := analysis.FieldsAcrossPages(p.Logs)
	pw := d.PerType.Get(string(fieldspec.Password))
	em := d.PerType.Get(string(fieldspec.Email))
	if pw == 0 || em == 0 {
		t.Fatalf("password=%d email=%d", pw, em)
	}
	// Password and Email are the two most-requested types (Figure 7).
	for _, row := range d.PerType.SortedByCount()[:2] {
		if row.Key != string(fieldspec.Password) && row.Key != string(fieldspec.Email) {
			t.Errorf("top-2 field types = %v", d.PerType.SortedByCount()[:3])
		}
	}
	if d.PerGroup.Get(string(fieldspec.GroupLogin)) == 0 {
		t.Error("login group empty")
	}
}

func TestFieldsPerStageShape(t *testing.T) {
	p := pipeline(t)
	rows := analysis.FieldsPerStage(p.Logs)
	if len(rows) == 0 {
		t.Fatal("no stage data")
	}
	// Login data concentrates in stage 1; financial data in later stages
	// (Figure 9).
	stagePct := func(ty fieldspec.Type, stage int) float64 {
		for _, r := range rows {
			if r.Type == ty && r.Stage == stage {
				return r.Pct
			}
		}
		return 0
	}
	if stagePct(fieldspec.Password, 1) <= stagePct(fieldspec.Password, 3) {
		t.Errorf("password: stage1 %.1f%% vs stage3 %.1f%%", stagePct(fieldspec.Password, 1), stagePct(fieldspec.Password, 3))
	}
	cardLate := stagePct(fieldspec.Card, 2) + stagePct(fieldspec.Card, 3) + stagePct(fieldspec.Card, 4) + stagePct(fieldspec.Card, 5)
	if cardLate <= stagePct(fieldspec.Card, 1) {
		t.Errorf("card data should concentrate after stage 1: late %.1f vs first %.1f", cardLate, stagePct(fieldspec.Card, 1))
	}
}

func TestObfuscationRates(t *testing.T) {
	p := pipeline(t)
	r := analysis.Obfuscation(p.Logs)
	if math.Abs(r.OCRRate-0.27) > 0.12 {
		t.Errorf("OCR rate = %.2f, want near 0.27", r.OCRRate)
	}
	if r.VisualSubmitRate == 0 {
		t.Error("no visual submits measured")
	}
	if math.Abs(r.VisualSubmitRate-0.12) > 0.08 {
		t.Errorf("visual-submit rate = %.2f, want near 0.12", r.VisualSubmitRate)
	}
}

func TestKeyloggingTiersAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	k := analysis.Keylogging(p.Logs)
	var t1, t2, t3 int
	for _, l := range p.Logs {
		switch tier := truths[l.SiteID].KeyloggerTier; {
		case tier >= 1:
			t1++
			if tier >= 2 {
				t2++
			}
			if tier == 3 {
				t3++
			}
		}
	}
	if k.Monitoring == 0 || t1 == 0 {
		t.Fatalf("no keylogging measured (truth %d)", t1)
	}
	// Monitoring is measurable whenever typing happened; allow slack for
	// sites where the crawler never typed (stuck CAPTCHAs etc.).
	if float64(k.Monitoring) < 0.7*float64(t1) {
		t.Errorf("monitoring = %d vs truth %d", k.Monitoring, t1)
	}
	if k.ImmediateRequest < k.DataExfiltrated {
		t.Errorf("tier nesting violated: %+v", k)
	}
	if k.Monitoring < k.ImmediateRequest {
		t.Errorf("tier nesting violated: %+v", k)
	}
}

func TestDoubleLoginAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	truthN := 0
	for _, l := range p.Logs {
		if truths[l.SiteID].DoubleLogin {
			truthN++
		}
	}
	got := analysis.DoubleLoginCount(p.Logs)
	// Every truth double-login site the crawler passed should be counted;
	// small corpora may have very few.
	if truthN > 0 && got == 0 {
		t.Errorf("double login: truth %d, measured 0", truthN)
	}
	if got > truthN+3 {
		t.Errorf("double login overcounted: truth %d, measured %d", truthN, got)
	}
}

func TestTerminationAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	clf, err := termclass.Train(99)
	if err != nil {
		t.Fatal(err)
	}
	tc := analysis.Termination(p.Logs, clf)
	var truthRedirect, truthFinal int
	for _, l := range p.Logs {
		switch truths[l.SiteID].Termination {
		case site.TermRedirectLegit:
			truthRedirect++
		case site.TermSuccess, site.TermCustomError, site.TermAwareness, site.TermHTTPError:
			truthFinal++
		}
	}
	if truthRedirect > 0 && tc.RedirectSites == 0 {
		t.Error("no redirects measured")
	}
	if float64(tc.RedirectSites) < 0.7*float64(truthRedirect) {
		t.Errorf("redirects = %d vs truth %d", tc.RedirectSites, truthRedirect)
	}
	// Redirect targets include brand domains (Table 4).
	if tc.RedirectSites > 0 && len(tc.RedirectDomains.Keys()) == 0 {
		t.Error("no redirect domains recorded")
	}
	if truthFinal > 2 && tc.FinalNoInputSites == 0 {
		t.Errorf("no terminal pages measured (truth %d)", truthFinal)
	}
	// Classified categories must be a subset of the known labels.
	for _, k := range tc.ByCategory.Keys() {
		switch k {
		case termclass.Success, termclass.CustomErr, termclass.HTTPError, termclass.Awareness, termclass.Other:
		default:
			t.Errorf("unexpected termination category %q", k)
		}
	}
}

func TestClickThroughAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	ct := analysis.ClickThrough(p.Logs)
	truthFirst := 0
	for _, l := range p.Logs {
		if truths[l.SiteID].ClickThroughFirst {
			truthFirst++
		}
	}
	if truthFirst > 0 && ct.FirstPage == 0 {
		t.Errorf("click-through first: truth %d, measured 0", truthFirst)
	}
	if ct.Total < ct.FirstPage || ct.Total < ct.Internal {
		t.Errorf("click-through counts inconsistent: %+v", ct)
	}
	// Note: CAPTCHA verification pages also read as click-through (no
	// inputs then inputs), so measured >= truth is expected.
	if ct.FirstPage < truthFirst {
		t.Logf("note: click-through first measured %d < truth %d", ct.FirstPage, truthFirst)
	}
}

func TestCaptchasAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	cc := analysis.Captchas(p.Logs, p.CaptchaAnalysisOptions())
	var truthKnown, truthRecap, truthHcap int
	for _, l := range p.Logs {
		tr := truths[l.SiteID]
		if !tr.HasCaptcha {
			continue
		}
		switch tr.CaptchaProvider {
		case captcha.ProviderRecaptcha:
			truthKnown++
			truthRecap++
		case captcha.ProviderHcaptcha:
			truthKnown++
			truthHcap++
		}
	}
	if truthKnown > 0 && cc.KnownTotal == 0 {
		t.Errorf("known captchas: truth %d, measured 0", truthKnown)
	}
	if cc.Recaptcha != truthRecap {
		t.Errorf("recaptcha = %d, truth %d", cc.Recaptcha, truthRecap)
	}
	if cc.Hcaptcha != truthHcap {
		t.Errorf("hcaptcha = %d, truth %d", cc.Hcaptcha, truthHcap)
	}
	if cc.Total < cc.KnownTotal {
		t.Errorf("totals inconsistent: %+v", cc)
	}
}

func TestTwoFactorAgainstTruth(t *testing.T) {
	p := pipeline(t)
	truths := truthByID(p)
	tf := analysis.TwoFactor(p.Logs)
	truthOTP := 0
	for _, l := range p.Logs {
		if truths[l.SiteID].TwoFactor {
			truthOTP++
		}
	}
	if tf.CodeFieldSites == 0 {
		t.Fatal("no code fields measured")
	}
	if tf.OTPSites > tf.CodeFieldSites {
		t.Errorf("OTP (%d) > code sites (%d)", tf.OTPSites, tf.CodeFieldSites)
	}
	if truthOTP > 1 && tf.OTPSites == 0 {
		t.Errorf("OTP sites: truth %d, measured 0", truthOTP)
	}
}

func TestCloningTable3(t *testing.T) {
	p := pipeline(t)
	results := analysis.Cloning(p.Logs, p.Gallery, brands.Table3Brands(), 50)
	if len(results) != 5 {
		t.Fatalf("got %d brands", len(results))
	}
	sawSamples := false
	for _, r := range results {
		if r.Sampled > 0 {
			sawSamples = true
			if r.NonClonePct < 0 || r.NonClonePct > 100 {
				t.Errorf("%s: pct = %f", r.Brand, r.NonClonePct)
			}
		}
	}
	if !sawSamples {
		t.Error("no Table 3 brand samples found in corpus")
	}
}

func TestClusterCampaigns(t *testing.T) {
	p := pipeline(t)
	n := analysis.ClusterCampaigns(p.Logs)
	if n == 0 {
		t.Fatal("no clusters")
	}
	if n > len(p.Logs) {
		t.Errorf("more clusters (%d) than sites (%d)", n, len(p.Logs))
	}
	// Clusters should be far fewer than sites (campaigns share design).
	if float64(n) > 0.9*float64(len(p.Logs)) {
		t.Errorf("clustering found %d clusters for %d sites — designs not shared?", n, len(p.Logs))
	}
}
