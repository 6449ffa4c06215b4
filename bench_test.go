// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see the experiment index in DESIGN.md), plus ablation benches
// for the design choices the crawler rests on. Each benchmark reports the
// reproduced quantities as custom metrics so `go test -bench` output doubles
// as a results table.
//
// The corpus scale is controlled by the PHISH_BENCH_SITES environment
// variable (default 1200); the paper's full scale is 51,859.
package repro_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/fielddata"
	"repro/internal/fieldspec"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/ocr"
	"repro/internal/pagegen"
	"repro/internal/raster"
	"repro/internal/textclass"
	"repro/internal/triage"
	"repro/internal/vision"
)

func benchSites() int {
	if v := os.Getenv("PHISH_BENCH_SITES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1200
}

// The shared crawled pipeline. Building and crawling once keeps the
// per-table benches focused on the analysis they reproduce.
var (
	once sync.Once
	pipe *core.Pipeline
)

func pipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	once.Do(func() {
		var err error
		pipe, err = core.NewPipeline(core.Options{NumSites: benchSites(), Seed: 42})
		if err != nil {
			panic(err)
		}
		pipe.Crawl(0)
	})
	return pipe
}

func BenchmarkTable1Summary(b *testing.B) {
	p := pipeline(b)
	var s analysis.Summary
	for i := 0; i < b.N; i++ {
		s = analysis.Summarize(p.Feed, p.Logs)
	}
	b.ReportMetric(float64(s.SeedURLs), "seed-urls")
	b.ReportMetric(float64(s.FilteredURLs), "filtered-urls")
	b.ReportMetric(float64(s.CrawledURLs), "crawled-urls")
	b.ReportMetric(float64(s.CrawledSLDs), "crawled-slds")
}

func BenchmarkTable2Categories(b *testing.B) {
	p := pipeline(b)
	var h *metrics.Histogram
	for i := 0; i < b.N; i++ {
		h = analysis.CategoryCounts(p.Logs)
	}
	top := h.SortedByCount()
	if len(top) > 0 {
		b.ReportMetric(float64(top[0].Count), "top-category-sites")
	}
	b.ReportMetric(float64(len(top)), "categories")
}

func BenchmarkTable3Cloning(b *testing.B) {
	p := pipeline(b)
	var rs []analysis.CloningResult
	for i := 0; i < b.N; i++ {
		rs = analysis.Cloning(p.Logs, p.Gallery, brands.Table3Brands(), 50)
	}
	sum, n := 0.0, 0
	for _, r := range rs {
		if r.Sampled > 0 {
			sum += r.NonClonePct
			n++
		}
	}
	if n > 0 {
		// Paper average: 42%.
		b.ReportMetric(sum/float64(n), "avg-nonclone-pct")
	}
}

func BenchmarkTable4Redirects(b *testing.B) {
	p := pipeline(b)
	var tc analysis.TerminationCounts
	for i := 0; i < b.N; i++ {
		tc = analysis.Termination(p.Logs, p.TermClassifier)
	}
	b.ReportMetric(float64(tc.RedirectSites), "redirect-sites")
	b.ReportMetric(float64(len(tc.RedirectDomains.Keys())), "distinct-domains")
}

// BenchmarkTable5CaptchaAP runs the detector train/val/test protocol of
// Section 5.3.2 at a reduced scale (paper: 10,000/1,000/2,000 pages).
func BenchmarkTable5CaptchaAP(b *testing.B) {
	var res vision.EvalResult
	for i := 0; i < b.N; i++ {
		det, err := vision.Train(pagegen.GenerateSet(1000, 1, pagegen.Config{}), 2)
		if err != nil {
			b.Fatal(err)
		}
		res = vision.Evaluate(det, pagegen.GenerateSet(200, 3, pagegen.Config{}))
	}
	// Paper test mean AP: 92.0.
	b.ReportMetric(res.MeanAP*100, "mean-AP")
	b.ReportMetric(res.APPerClass["button"]*100, "button-AP")
	b.ReportMetric(res.APPerClass["visual-type2"]*100, "visual2-AP")
}

// BenchmarkTable6FieldClassifier runs the 1,000/310 protocol of Section 4.2.
func BenchmarkTable6FieldClassifier(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		corpus := fielddata.Corpus(4)
		train, test := fielddata.Split(corpus)
		m, err := textclass.Train(train, textclass.TrainConfig{Seed: 4, Epochs: 40})
		if err != nil {
			b.Fatal(err)
		}
		conf := metrics.NewConfusion()
		for _, s := range test {
			pred, _ := m.Predict(s.Text)
			conf.Add(s.Label, pred)
		}
		f1 = conf.MacroF1()
	}
	// Paper: average F1 0.90.
	b.ReportMetric(f1, "macro-F1")
}

func BenchmarkTable7Brands(b *testing.B) {
	p := pipeline(b)
	var h *metrics.Histogram
	for i := 0; i < b.N; i++ {
		h = analysis.BrandCounts(p.Logs)
	}
	top := h.SortedByCount()
	if len(top) > 0 {
		b.ReportMetric(float64(top[0].Count), "top-brand-sites")
	}
}

func BenchmarkFigure7FieldDistribution(b *testing.B) {
	p := pipeline(b)
	var d analysis.FieldDistribution
	for i := 0; i < b.N; i++ {
		d = analysis.FieldsAcrossPages(p.Logs)
	}
	b.ReportMetric(float64(d.PerType.Get(string(fieldspec.Password))), "password-pages")
	b.ReportMetric(float64(d.PerType.Get(string(fieldspec.Email))), "email-pages")
	b.ReportMetric(float64(d.PerType.Get(string(fieldspec.Code))), "code-pages")
}

func BenchmarkFigure8PageHistogram(b *testing.B) {
	p := pipeline(b)
	var h map[int]int
	for i := 0; i < b.N; i++ {
		h = analysis.PageCountHistogram(p.Logs)
	}
	total := 0
	for _, v := range h {
		total += v
	}
	// Paper: 23,446 multi-page sites = 45%.
	b.ReportMetric(100*float64(total)/float64(len(p.Logs)), "multipage-pct")
	b.ReportMetric(float64(h[3]), "three-page-sites")
}

func BenchmarkFigure9FieldsPerStage(b *testing.B) {
	p := pipeline(b)
	var rows []analysis.StageField
	for i := 0; i < b.N; i++ {
		rows = analysis.FieldsPerStage(p.Logs)
	}
	// Login data should concentrate in stage 1 (Figure 9's headline shape).
	for _, r := range rows {
		if r.Type == fieldspec.Password && r.Stage == 1 {
			b.ReportMetric(r.Pct, "password-stage1-pct")
		}
	}
}

func BenchmarkOCRAndVisualSubmitRates(b *testing.B) {
	p := pipeline(b)
	var r analysis.ObfuscationRates
	for i := 0; i < b.N; i++ {
		r = analysis.Obfuscation(p.Logs)
	}
	// Paper: 27% and 12%.
	b.ReportMetric(r.OCRRate*100, "ocr-pct")
	b.ReportMetric(r.VisualSubmitRate*100, "visual-submit-pct")
}

func BenchmarkKeyloggingMeasurement(b *testing.B) {
	p := pipeline(b)
	var k analysis.KeyloggingCounts
	for i := 0; i < b.N; i++ {
		k = analysis.Keylogging(p.Logs)
	}
	// Paper: 18,745 / 642 / 75.
	b.ReportMetric(float64(k.Monitoring), "monitoring")
	b.ReportMetric(float64(k.ImmediateRequest), "immediate-request")
	b.ReportMetric(float64(k.DataExfiltrated), "exfiltrated")
}

func BenchmarkDoubleLogin(b *testing.B) {
	p := pipeline(b)
	n := 0
	for i := 0; i < b.N; i++ {
		n = analysis.DoubleLoginCount(p.Logs)
	}
	// Paper: 400.
	b.ReportMetric(float64(n), "double-login-sites")
}

func BenchmarkTerminationPatterns(b *testing.B) {
	p := pipeline(b)
	var tc analysis.TerminationCounts
	for i := 0; i < b.N; i++ {
		tc = analysis.Termination(p.Logs, p.TermClassifier)
	}
	// Paper: 5,403 final pages; 966/125/1,599/176 by category.
	b.ReportMetric(float64(tc.FinalNoInputSites), "final-pages")
	b.ReportMetric(float64(tc.ByCategory.Get("success")), "success")
	b.ReportMetric(float64(tc.ByCategory.Get("http-error")), "http-errors")
	b.ReportMetric(float64(tc.ByCategory.Get("awareness")), "awareness")
	b.ReportMetric(float64(tc.AwarenessCampaigns), "awareness-campaigns")
}

func BenchmarkClickThrough(b *testing.B) {
	p := pipeline(b)
	var ct analysis.ClickThroughCounts
	for i := 0; i < b.N; i++ {
		ct = analysis.ClickThrough(p.Logs)
	}
	// Paper: 2,933 total; 2,713 first page; 220 internal.
	b.ReportMetric(float64(ct.Total), "total")
	b.ReportMetric(float64(ct.FirstPage), "first-page")
	b.ReportMetric(float64(ct.Internal), "internal")
}

func BenchmarkCaptchaPrevalence(b *testing.B) {
	p := pipeline(b)
	var cc analysis.CaptchaCounts
	for i := 0; i < b.N; i++ {
		cc = analysis.Captchas(p.Logs, p.CaptchaAnalysisOptions())
	}
	// Paper: 2,608 total; 1,856 reCAPTCHA; 640 hCaptcha; 34 text; 78 visual.
	b.ReportMetric(float64(cc.Total), "total")
	b.ReportMetric(float64(cc.Recaptcha), "recaptcha")
	b.ReportMetric(float64(cc.Hcaptcha), "hcaptcha")
	b.ReportMetric(float64(cc.CustomText), "custom-text")
	b.ReportMetric(float64(cc.CustomVisual), "custom-visual")
}

// BenchmarkCaptchaRealWorldEval reproduces the real-image evaluation of
// Section 5.3.2: run the detector over crawled screenshots, verify with the
// heuristics, and compare against ground truth (paper: precision 89.2%
// before filtering, 100% after; recall 87.8%).
func BenchmarkCaptchaRealWorldEval(b *testing.B) {
	p := pipeline(b)
	truthHasCustom := map[string]bool{}
	for _, s := range p.Corpus.Sites {
		truthHasCustom[s.ID] = s.Truth.HasCaptcha && s.Truth.CaptchaProvider == "custom"
	}
	var tp, fp, fn int
	for i := 0; i < b.N; i++ {
		tp, fp, fn = 0, 0, 0
		cc := analysis.CaptchaOptions{Exemplars: p.CaptchaExemplars}
		for _, l := range p.Logs {
			measured := siteHasVerifiedCustomCaptcha(l, cc)
			switch {
			case measured && truthHasCustom[l.SiteID]:
				tp++
			case measured && !truthHasCustom[l.SiteID]:
				fp++
			case !measured && truthHasCustom[l.SiteID]:
				fn++
			}
		}
	}
	prec, rec := metrics.PrecisionRecall(tp, fp, fn)
	b.ReportMetric(prec*100, "precision-pct")
	b.ReportMetric(rec*100, "recall-pct")
}

func siteHasVerifiedCustomCaptcha(l *crawler.SessionLog, opts analysis.CaptchaOptions) bool {
	cc := analysis.Captchas([]*crawler.SessionLog{l}, opts)
	return cc.CustomText > 0 || cc.CustomVisual > 0
}

func BenchmarkTwoFactor(b *testing.B) {
	p := pipeline(b)
	var tf analysis.TwoFactorCounts
	for i := 0; i < b.N; i++ {
		tf = analysis.TwoFactor(p.Logs)
	}
	// Paper: 8,893 code-field sites; 1,032 OTP.
	b.ReportMetric(float64(tf.CodeFieldSites), "code-sites")
	b.ReportMetric(float64(tf.OTPSites), "otp-sites")
}

func BenchmarkCampaignClustering(b *testing.B) {
	p := pipeline(b)
	n := 0
	for i := 0; i < b.N; i++ {
		n = analysis.ClusterCampaigns(p.Logs)
	}
	b.ReportMetric(float64(n), "clusters")
	b.ReportMetric(float64(p.Corpus.Campaigns), "generated-campaigns")
}

// BenchmarkFarmThroughput measures end-to-end crawl throughput (Section
// 4.6: the paper sustains >1,000 sites/day on 30 parallel sessions).
func BenchmarkFarmThroughput(b *testing.B) {
	p := pipeline(b)
	urls := p.Feed.URLs()
	if len(urls) > 100 {
		urls = urls[:100]
	}
	var stats farm.Stats
	for i := 0; i < b.N; i++ {
		_, stats = farm.Run(farm.Config{Workers: 30, Crawler: p.Crawler}, urls)
	}
	b.ReportMetric(stats.SitesPerDay(), "sites/day")
}

// --- Hot-path micro-benches (perf harness) ---
//
// These three benches capture the visual hot path's cost so optimizations
// land with a reproducible before/after number (see the "Performance"
// section of README.md). They deliberately exercise the exact call shapes
// the crawler uses per page: one detector pass, the per-field OCR label
// search, and the end-to-end farm loop.

// BenchmarkDetect measures one full detector pass (proposals + features +
// NMS) over a generated page screenshot.
func BenchmarkDetect(b *testing.B) {
	det, err := vision.Train(pagegen.GenerateSet(200, 1, pagegen.Config{}), 2)
	if err != nil {
		b.Fatal(err)
	}
	pages := pagegen.GenerateSet(8, 9, pagegen.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(pages[i%len(pages)].Image)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
}

// BenchmarkOCRPage measures the OCR work one crawled page costs: the
// label search left of and above each input box (Section 4.1 step 3),
// repeated for a form's worth of fields against one screenshot. It follows
// the crawler's pattern: binarize the screenshot once into a (pooled) ink
// mask, then run every field's label search against it.
func BenchmarkOCRPage(b *testing.B) {
	img := ocrBenchPage()
	eng := ocr.New()
	boxes := ocrBenchBoxes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ocr.NewMask(img)
		for _, box := range boxes {
			eng.TextNearMask(m, box, 150)
		}
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
}

// ocrBenchPage draws a login-style form whose labels sit left of and above
// the input boxes, mimicking the screenshots the crawler OCRs.
func ocrBenchPage() *raster.Image {
	img := raster.New(800, 600, raster.White)
	labels := []string{"Email address", "Password", "Card number", "Security code"}
	for i, label := range labels {
		y := 80 + i*90
		img.DrawString(label, 60, y, raster.Black)
		img.Outline(raster.R(60, y+20, 220, 18), raster.Gray)
		img.DrawString("Account "+label, 320, y+24, raster.Black)
	}
	return img
}

func ocrBenchBoxes() []raster.Rect {
	out := make([]raster.Rect, 0, 4)
	for i := 0; i < 4; i++ {
		out = append(out, raster.R(60, 100+i*90, 220, 18))
	}
	return out
}

// BenchmarkCrawlThroughput measures end-to-end farm throughput on a small
// corpus, reporting sites/sec — the number behind the paper's >1,000
// sites/day claim (Section 4.6).
func BenchmarkCrawlThroughput(b *testing.B) {
	p, err := core.NewPipeline(core.Options{NumSites: 60, Seed: 7, DetectorTrainPages: 150})
	if err != nil {
		b.Fatal(err)
	}
	urls := p.Feed.URLs()
	if len(urls) > 50 {
		urls = urls[:50]
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats farm.Stats
	for i := 0; i < b.N; i++ {
		_, stats = farm.Run(farm.Config{Workers: 16, Crawler: p.Crawler}, urls)
	}
	b.ReportMetric(float64(stats.Sites)/stats.Elapsed.Seconds(), "sites/sec")
	b.ReportMetric(stats.Elapsed.Seconds()*1e9/float64(stats.Sites), "ns/site")
}

// BenchmarkCrawlThroughputJournalGroup is the durable counterpart of
// BenchmarkCrawlThroughput: the same farm run, but every finished session is
// streamed into an on-disk journal under the group-commit fsync policy, the
// configuration a long crawl actually ships with. Comparing its sites/sec
// against the in-memory benchmark measures the full cost of durability; the
// acceptance bar is >=0.8x of the in-memory figure.
func BenchmarkCrawlThroughputJournalGroup(b *testing.B) {
	p, err := core.NewPipeline(core.Options{NumSites: 60, Seed: 7, DetectorTrainPages: 150})
	if err != nil {
		b.Fatal(err)
	}
	urls := p.Feed.URLs()
	if len(urls) > 50 {
		urls = urls[:50]
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats farm.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := journal.Open(b.TempDir(), journal.Options{Sync: journal.SyncGroup})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err = farm.RunStream(farm.Config{
			Workers:        16,
			Crawler:        p.Crawler,
			SinkConcurrent: true,
			Sink: func(_ int, lg *crawler.SessionLog) error {
				return j.AppendSession(lg)
			},
		}, urls)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Sites)/stats.Elapsed.Seconds(), "sites/sec")
	b.ReportMetric(stats.Elapsed.Seconds()*1e9/float64(stats.Sites), "ns/site")
}

// BenchmarkTriage measures the triage funnel on a clone-heavy feed (240
// sites clamped into campaigns of >= 12 members): the attribution hit-rate
// — the fraction of feed URLs resolved without a full browser session —
// and the per-URL fast-path latency, the cost of synthesizing an
// attributed session log from the probe fingerprint instead of crawling.
func BenchmarkTriage(b *testing.B) {
	p, err := core.NewPipeline(core.Options{
		NumSites:           240,
		Seed:               42,
		DetectorTrainPages: 150,
		MinCampaignSize:    12,
		Triage:             &triage.Options{},
	})
	if err != nil {
		b.Fatal(err)
	}
	urls := p.Feed.URLs()
	fn := p.Triage.Funnel()
	if fn.Attributed == 0 {
		b.Fatal("clone-heavy feed produced no attributions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx, u := range urls {
			p.Triage.FastPath(idx, u)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(urls)), "ns/fast-path")
	b.ReportMetric(100*float64(fn.Attributed)/float64(fn.Total), "hit-rate-pct")
	b.ReportMetric(float64(fn.Full), "full-sessions")
	b.ReportMetric(float64(p.Triage.Campaigns), "campaigns")
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationNoOCR disables the OCR label fallback and measures how
// many input fields lose their classification.
func BenchmarkAblationNoOCR(b *testing.B) {
	p := pipeline(b)
	urls := p.Feed.URLs()
	if len(urls) > 150 {
		urls = urls[:150]
	}
	classified := func(logs []*crawler.SessionLog) (known, total int) {
		for _, l := range logs {
			for _, pg := range l.Pages {
				for _, f := range pg.Fields {
					total++
					if f.Label != fieldspec.Unknown {
						known++
					}
				}
			}
		}
		return
	}
	var withPct, withoutPct float64
	for i := 0; i < b.N; i++ {
		base := *p.Crawler
		logsWith, _ := farm.Run(farm.Config{Workers: 16, Crawler: &base}, urls)
		noOCR := *p.Crawler
		noOCR.DisableOCR = true
		logsWithout, _ := farm.Run(farm.Config{Workers: 16, Crawler: &noOCR}, urls)
		k1, t1 := classified(logsWith)
		k2, t2 := classified(logsWithout)
		if t1 > 0 && t2 > 0 {
			withPct = 100 * float64(k1) / float64(t1)
			withoutPct = 100 * float64(k2) / float64(t2)
		}
	}
	b.ReportMetric(withPct, "classified-pct")
	b.ReportMetric(withoutPct, "classified-pct-no-ocr")
}

// BenchmarkAblationURLOnly disables DOM-hash transition detection and
// measures how many multi-page flows the crawler prematurely abandons.
func BenchmarkAblationURLOnly(b *testing.B) {
	p := pipeline(b)
	urls := p.Feed.URLs()
	if len(urls) > 150 {
		urls = urls[:150]
	}
	multiCount := func(logs []*crawler.SessionLog) int {
		n := 0
		for _, l := range logs {
			if analysis.IsMultiPage(l) {
				n++
			}
		}
		return n
	}
	var full, urlOnly int
	for i := 0; i < b.N; i++ {
		base := *p.Crawler
		logsFull, _ := farm.Run(farm.Config{Workers: 16, Crawler: &base}, urls)
		ab := *p.Crawler
		ab.URLOnlyTransitions = true
		logsURL, _ := farm.Run(farm.Config{Workers: 16, Crawler: &ab}, urls)
		full = multiCount(logsFull)
		urlOnly = multiCount(logsURL)
	}
	b.ReportMetric(float64(full), "multipage-domhash")
	b.ReportMetric(float64(urlOnly), "multipage-urlonly")
}

// BenchmarkAblationNoVisualSubmit removes the visual detection rung of the
// submit ladder and measures completion loss.
func BenchmarkAblationNoVisualSubmit(b *testing.B) {
	p := pipeline(b)
	urls := p.Feed.URLs()
	if len(urls) > 150 {
		urls = urls[:150]
	}
	submitted := func(logs []*crawler.SessionLog) int {
		n := 0
		for _, l := range logs {
			for _, pg := range l.Pages {
				if pg.SubmitMethod != "" {
					n++
					break
				}
			}
		}
		return n
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		base := *p.Crawler
		logsWith, _ := farm.Run(farm.Config{Workers: 16, Crawler: &base}, urls)
		ab := *p.Crawler
		ab.Detector = nil
		logsWithout, _ := farm.Run(farm.Config{Workers: 16, Crawler: &ab}, urls)
		with = submitted(logsWith)
		without = submitted(logsWithout)
	}
	b.ReportMetric(float64(with), "sites-submitted")
	b.ReportMetric(float64(without), "sites-submitted-novisual")
}

// BenchmarkAblationConfidenceThreshold sweeps the field classifier's reject
// threshold, reporting coverage at the paper's 0.8 operating point.
func BenchmarkAblationConfidenceThreshold(b *testing.B) {
	corpus := fielddata.Corpus(4)
	train, test := fielddata.Split(corpus)
	m, err := textclass.Train(train, textclass.TrainConfig{Seed: 4, Epochs: 40})
	if err != nil {
		b.Fatal(err)
	}
	var covered, accurate float64
	for i := 0; i < b.N; i++ {
		kept, correct := 0, 0
		for _, s := range test {
			label, _ := m.PredictThreshold(s.Text, crawler.ConfidenceThreshold, "unknown")
			if label == "unknown" {
				continue
			}
			kept++
			if label == s.Label {
				correct++
			}
		}
		covered = 100 * float64(kept) / float64(len(test))
		if kept > 0 {
			accurate = 100 * float64(correct) / float64(kept)
		}
	}
	b.ReportMetric(covered, "coverage-pct")
	b.ReportMetric(accurate, "accuracy-pct")
}

// BenchmarkAblationMonolingual quantifies the paper's Section 6 language
// limitation: an English-only field classifier versus the multilingual one
// on the corpus's localized (French/Spanish) labels.
func BenchmarkAblationMonolingual(b *testing.B) {
	mono, err := fielddata.TrainDefault(3)
	if err != nil {
		b.Fatal(err)
	}
	multi, err := fielddata.TrainMultilingual(3)
	if err != nil {
		b.Fatal(err)
	}
	p := pipeline(b)
	langOf := map[string]string{}
	for _, s := range p.Corpus.Sites {
		langOf[s.ID] = s.Truth.Language
	}
	var monoPct, multiPct float64
	for i := 0; i < b.N; i++ {
		var monoHit, multiHit, total int
		for _, l := range p.Logs {
			if langOf[l.SiteID] == "en" || langOf[l.SiteID] == "" {
				continue
			}
			for _, pg := range l.Pages {
				for _, f := range pg.Fields {
					if f.Description == "" {
						continue
					}
					total++
					if lbl, _ := mono.PredictThreshold(f.Description, crawler.ConfidenceThreshold, "unknown"); lbl != "unknown" {
						monoHit++
					}
					if lbl, _ := multi.PredictThreshold(f.Description, crawler.ConfidenceThreshold, "unknown"); lbl != "unknown" {
						multiHit++
					}
				}
			}
		}
		if total > 0 {
			monoPct = 100 * float64(monoHit) / float64(total)
			multiPct = 100 * float64(multiHit) / float64(total)
		}
	}
	b.ReportMetric(monoPct, "mono-coverage-pct")
	b.ReportMetric(multiPct, "multi-coverage-pct")
}
