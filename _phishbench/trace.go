package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/captcha"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dom"
	"repro/internal/farm"
	"repro/internal/fielddata"
	"repro/internal/fieldspec"
	"repro/internal/journal"
	"repro/internal/layout"
	metricspkg "repro/internal/metrics"
	"repro/internal/ocr"
	"repro/internal/pagegen"
	"repro/internal/phash"
	"repro/internal/phishserver"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/termclass"
	"repro/internal/triage"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// The traced mode records spans only from the benchmark's own code, around
// calls into each layer's public functions; the program is not changed.

// traceSpan is one recorded interval. Spans of one crawl session share
// Session, the seed URL's host.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s traceSpan) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; write emits them when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []traceSpan
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, session string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, traceSpan{
		ID: id, Parent: parent, Name: name, Session: session,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open records a span whose end is set by close.
func (t *tracer) open(name string, parent int, session string) int {
	now := time.Now()
	return t.add(name, parent, session, now, now)
}

func (t *tracer) close(id int) time.Duration {
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = end
	return t.spans[id].dur()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, session string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, session, start, end)
	return end.Sub(start)
}

// durations lists the durations, in ms, of the spans named name whose
// parent is in parents.
func (t *tracer) durations(name string, parents map[int]bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && parents[s.Parent] {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// timedTransport is an http.RoundTripper that records one span per
// request. In the concurrent farm window a request's session is the
// request's host; in the serial replay it is the seed host being crawled.
// With capture set it also keeps the bodies of HTML pages and images for
// the layer replay.
type timedTransport struct {
	inner   http.RoundTripper
	name    string
	tr      *tracer
	parent  func() int
	session func(*http.Request) string

	capture *capture
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	end := time.Now()
	sess := t.session(req)
	t.tr.add(t.name, t.parent(), sess, start, end)
	if err == nil && t.capture != nil {
		resp, err = t.capture.keep(sess, req, resp)
	}
	return resp, err
}

// capture holds the HTML documents and images served during the serial
// replay, keyed by seed host and URL.
type capture struct {
	mu     sync.Mutex
	docs   map[string]string // session + " " + URL -> HTML
	nDocs  int               // every HTML response, kept or not
	order  []string          // keys of docs, in fetch order
	images map[string][]byte // URL -> encoded image
}

const maxCapturedDocs = 600

func (c *capture) keep(sess string, req *http.Request, resp *http.Response) (*http.Response, error) {
	ct := resp.Header.Get("Content-Type")
	isHTML := strings.HasPrefix(ct, "text/html") && resp.StatusCode == http.StatusOK
	isImage := strings.HasPrefix(ct, "image/")
	if !isHTML && !isImage {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		_ = resp.Body.Close() // the read error is the one worth reporting
		return nil, err
	}
	// The served response stays valid until its body is closed (the
	// phishserver recycles it, headers included), so the original Close is
	// deferred to the browser's.
	resp.Body = keptBody{Reader: bytes.NewReader(body), inner: resp.Body}
	c.mu.Lock()
	defer c.mu.Unlock()
	u := req.URL.String()
	if isImage {
		c.images[u] = body
		return resp, nil
	}
	c.nDocs++
	key := sess + " " + u
	if _, ok := c.docs[key]; !ok && len(c.docs) < maxCapturedDocs {
		c.docs[key] = string(body)
		c.order = append(c.order, key)
	}
	return resp, nil
}

// keptBody serves a captured copy of a response body and closes the
// original when the reader is closed.
type keptBody struct {
	*bytes.Reader
	inner io.Closer
}

func (b keptBody) Close() error { return b.inner.Close() }

// installTiming routes p's crawler through two timing transports: one
// around the in-process phishserver and one around everything above it —
// the fault injector under chaos, nothing but the inner timer elsewhere —
// so chaos waits are separated from serving.
func installTiming(p *core.Pipeline, tr *tracer, parent func() int, session func(*http.Request) string, c *capture) {
	serve := &timedTransport{
		inner: phishserver.Transport{Registry: p.Registry}, name: "phishserver.serve",
		tr: tr, parent: parent, session: session, capture: c,
	}
	var inner http.RoundTripper = serve
	if p.Injector != nil {
		p.Injector.Inner = serve
		inner = p.Injector
	}
	outer := &timedTransport{inner: inner, name: "transport.roundtrip", tr: tr, parent: parent, session: session}
	timeout := p.Opts.FetchTimeout
	p.Crawler.NewBrowser = func() *browser.Browser {
		return browser.New(browser.Options{Transport: outer, Timeout: timeout})
	}
}

func hostOf(req *http.Request) string { return req.URL.Host }

func fixed(id int) func() int { return func() int { return id } }

func newCapture() *capture {
	return &capture{docs: map[string]string{}, images: map[string][]byte{}}
}

// runTraced is the per-layer mode. Its end-to-end numbers come from one
// untraced round; the traced round that follows on the same corpus gives
// the tracing overhead, and serial replays give each layer's time per call.
func runTraced(cfg config, out io.Writer) (result, error) {
	tr := newTracer()
	got := map[string]float64{}
	seed0 := roundSeed(cfg.seed, 0)

	// Set-up: core.TrainModels' calls, timed one by one (TrainModels runs
	// them concurrently, so their sum exceeds setup_s).
	models, err := tracedSetup(tr, modelSeed, got)
	if err != nil {
		return result{}, err
	}

	// Pipeline build.
	opts := cfg.wl.options(seed0, cfg.workers, cfg.sites, models)
	var gens []float64
	for i := 0; i < 3; i++ {
		gens = append(gens, tr.timed("core.NewFeed", -1, "", func() { core.NewFeed(opts) }).Seconds())
	}
	got["sitegen.generate_s"] = median(gens)
	withT, withoutT := opts, opts
	withT.Triage, withoutT.Triage = &triage.Options{}, nil
	var plain *core.Pipeline
	for _, o := range []core.Options{withoutT, withT} {
		runtime.GC()
		name := "core.NewPipeline"
		if o.Triage != nil {
			name += "+triage"
		}
		var p *core.Pipeline
		tr.timed(name, -1, "", func() { p, err = core.NewPipeline(o) })
		if err != nil {
			return result{}, err
		}
		if o.Triage == nil {
			plain = p
		}
	}
	got["triage.plan_s"] = timePlan(tr, plain, opts.Workers).Seconds()
	plain = nil
	probes, err := countProbes(tr, withT)
	if err != nil {
		return result{}, err
	}
	got["triage.probes_per_site"] = probes

	// Untraced round: farm and runtime counters, and the tracing-off
	// baseline for the overhead. The preflight crawl warms the process up
	// first, as in the end-to-end mode.
	if _, _, err := preflight(cfg, opts); err != nil {
		return result{}, err
	}
	dir, err := journalDir(cfg.workDir, 0)
	if err != nil {
		return result{}, err
	}
	untraced, err := crawlRound(opts, dir, nil)
	if err != nil {
		return result{}, err
	}
	urls := float64(untraced.urls)
	st := untraced.stats
	got["farm.busy_frac"] = untraced.window.cpu.Seconds() / (untraced.window.wall.Seconds() * float64(cfg.workers))
	got["farm.retries_per_site"] = float64(st.Retries) / urls
	got["farm.cloak_attempts_per_site"] = float64(st.CloakAttempts) / urls
	got["farm.gave_up_frac"] = float64(st.Outcomes[farm.OutcomeGaveUp]) / urls
	got["triage.fastpath_frac"] = float64(st.FastPathed) / urls
	rt := untraced.window.rt
	got["runtime.alloc_kb_per_site"] = rt.allocBytes / 1024 / urls
	got["runtime.mallocs_per_site"] = rt.mallocs / urls
	got["runtime.gc_cpu_frac"] = rt.gcCPU / untraced.window.cpu.Seconds()

	// Journal and report.
	var opens, sessions, tables []float64
	var logs []*crawler.SessionLog
	for k := 0; k < cfg.reportReps; k++ {
		runtime.GC()
		rb, err := reportPass(dir, untraced.pipeline)
		if err != nil {
			return result{}, err
		}
		opens = append(opens, rb.open.Seconds())
		sessions = append(sessions, rb.sessions.Seconds())
		tables = append(tables, rb.tables.Seconds()*1e3)
		logs = rb.logs
	}
	if _, err := checkSessions(dir, untraced.pipeline.Feed.URLs(), st); err != nil {
		return result{}, err
	}
	got["journal.open_s"] = median(opens)
	got["journal.sessions_s"] = median(sessions)
	got["analysis.tables_ms"] = median(tables)
	if err := replayJournal(tr, cfg, logs, got); err != nil {
		return result{}, err
	}
	pages, fields, ocrPages := 0, 0, 0
	for _, lg := range logs {
		pages += len(lg.Pages)
		for _, pg := range lg.Pages {
			fields += len(pg.Fields)
			if pg.UsedOCR {
				ocrPages++
			}
		}
	}
	got["crawler.pages_per_site"] = float64(pages) / urls
	got["crawler.fields_per_site"] = float64(fields) / urls
	got["crawler.ocr_page_frac"] = 0
	if pages > 0 {
		got["crawler.ocr_page_frac"] = float64(ocrPages) / float64(pages)
	}
	untraced.pipeline, logs = nil, nil
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}

	// Traced round on the same corpus, through the timing transports.
	dir, err = journalDir(cfg.workDir, 1)
	if err != nil {
		return result{}, err
	}
	window := tr.open("window.traced", -1, "")
	traced, err := crawlRound(opts, dir, func(p *core.Pipeline) { installTiming(p, tr, fixed(window), hostOf, nil) })
	if err != nil {
		return result{}, err
	}
	tr.close(window)
	inWindow := map[int]bool{window: true}
	serve := tr.durations("phishserver.serve", inWindow)
	got["phishserver.requests_per_site"] = float64(len(serve)) / urls
	got["phishserver.serve_ms_p50"] = percentile(serve, 0.50)
	got["phishserver.serve_ms_p99"] = percentile(serve, 0.99)
	got["chaos.wait_ms_per_site"] = (sum(tr.durations("transport.roundtrip", inWindow)) - sum(serve)) / urls
	overhead := traced.window.wall.Seconds()/untraced.window.wall.Seconds() - 1
	traced.pipeline = nil
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}

	// Serial replay of sessions, then of their pages through each layer.
	dec, err := replaySessions(tr, opts, got)
	if err != nil {
		return result{}, err
	}

	spanFile := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.wl.name, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "untraced round %.2fs, traced round %.2fs: tracing overhead %+.1f%%\n",
		untraced.window.wall.Seconds(), traced.window.wall.Seconds(), overhead*100)
	dec.print(out)
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), spanFile)
	writeTable(out, perLayer, got)
	res, err := newResult(perLayer, got)
	res.Correct = err == nil
	res.Attempted = untraced.urls + traced.urls + dec.sessions
	return res, err
}

// tracedSetup times core.TrainModels' public calls one by one and
// assembles the same bundle TrainModels would.
func tracedSetup(tr *tracer, seed int64, got map[string]float64) (*core.Models, error) {
	m := &core.Models{Params: core.ModelParams{Seed: seed, DetectorTrainPages: detectorTrainPages}}
	root := tr.open("core.TrainModels", -1, "")
	defer tr.close(root)
	var err error
	step := func(name string, fn func()) float64 {
		runtime.GC()
		return tr.timed(name, root, "", fn).Seconds()
	}
	if got["textclass.train_s"] = step("textclass.train", func() { m.FieldClassifier, err = fielddata.TrainMultilingual(seed) }); err != nil {
		return nil, err
	}
	if got["vision.train_s"] = step("vision.train", func() {
		m.Detector, err = vision.Train(pagegen.GenerateSet(detectorTrainPages, seed+2, pagegen.Config{}), seed+3)
	}); err != nil {
		return nil, err
	}
	if got["termclass.train_s"] = step("termclass.train", func() { m.TermClassifier, err = termclass.Train(seed + 4) }); err != nil {
		return nil, err
	}
	step("captcha.exemplars", func() {
		for _, kind := range captcha.VisualKinds() {
			for _, crop := range pagegen.CaptchaCrops(kind, 10, seed+5) {
				m.CaptchaExemplars = append(m.CaptchaExemplars, phash.Compute(crop))
			}
		}
	})
	got["visualphish.gallery_s"] = step("visualphish.gallery", func() { m.Gallery = analysis.BrandGallery() })
	return m, nil
}

// timePlan times triage.BuildPlan over the feed of p, a pipeline built
// without triage whose hosts have not been fetched yet (an injector
// charges its flaky-connection budget to the first fetches of a host). The
// brand vocabulary core passes only changes lexical scores.
func timePlan(tr *tracer, p *core.Pipeline, workers int) time.Duration {
	runtime.GC()
	return tr.timed("triage.BuildPlan", -1, "", func() {
		triage.BuildPlan(p.Feed.URLs(), triage.Config{Options: triage.Options{}, Workers: workers, NewBrowser: p.Crawler.NewBrowser})
	})
}

// countProbes rebuilds the triage plan of opts' feed through a counting
// transport and returns the HTML documents fetched per URL. The brand
// vocabulary only changes lexical scores, and with no top-K cut every URL
// is probed either way.
func countProbes(tr *tracer, opts core.Options) (float64, error) {
	opts.Triage = nil
	p, err := core.NewPipeline(opts)
	if err != nil {
		return 0, err
	}
	c := newCapture()
	root := tr.open("triage.BuildPlan+count", -1, "")
	installTiming(p, tr, fixed(root), hostOf, c)
	urls := p.Feed.URLs()
	triage.BuildPlan(urls, triage.Config{Options: triage.Options{}, Workers: opts.Workers, NewBrowser: p.Crawler.NewBrowser})
	tr.close(root)
	return float64(c.nDocs) / float64(len(urls)), nil
}

// replayJournal appends the read-back sessions to a fresh SyncAlways
// journal one by one.
func replayJournal(tr *tracer, cfg config, logs []*crawler.SessionLog, got map[string]float64) error {
	dir, err := journalDir(cfg.workDir, 2)
	if err != nil {
		return err
	}
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	root := tr.open("journal.replay", -1, "")
	var total time.Duration
	for _, lg := range logs {
		var aerr error
		total += tr.timed("journal.AppendSession", root, hostOfURL(lg.SeedURL), func() { aerr = j.AppendSession(lg) })
		if aerr != nil {
			_ = j.Close() // the append error is the one worth reporting
			return aerr
		}
	}
	tr.close(root)
	if err := j.Close(); err != nil {
		return err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	got["journal.append_us_per_record"] = total.Seconds() * 1e6 / float64(len(logs))
	got["journal.bytes_per_record"] = float64(bytes) / float64(len(logs))
	return os.RemoveAll(dir)
}

func hostOfURL(u string) string {
	if pu, err := url.Parse(u); err == nil {
		return pu.Host
	}
	return u
}

// replaySites bounds the serial session replay; at about 10-25 ms a
// session it keeps the traced run well inside its time limit.
const replaySites = 150

// decomposition accounts a replayed session's mean wall time by layer:
// time per call, measured by replaying captured pages through each layer,
// times calls per site, counted from the replayed sessions' logs and
// logical trace spans.
type decomposition struct {
	sessions  int
	sessionMS float64
	rows      []decompRow
}

type decompRow struct {
	layer   string
	perCall float64 // ms
	calls   float64 // per site
}

func (d decomposition) accounted() float64 {
	s := 0.0
	for _, r := range d.rows {
		s += r.perCall * r.calls
	}
	return s
}

func (d decomposition) print(w io.Writer) {
	fmt.Fprintf(w, "decomposition of crawler.session_ms over %d serially replayed sessions (mean %.3f ms):\n", d.sessions, d.sessionMS)
	fmt.Fprintf(w, "  %-26s %12s %12s %12s %8s\n", "layer", "ms/call", "calls/site", "ms/site", "share")
	for _, r := range d.rows {
		fmt.Fprintf(w, "  %-26s %12.4f %12.3f %12.4f %7.1f%%\n", r.layer, r.perCall, r.calls, r.perCall*r.calls, 100*r.perCall*r.calls/d.sessionMS)
	}
	res := d.sessionMS - d.accounted()
	fmt.Fprintf(w, "  %-26s %12s %12s %12.4f %7.1f%%\n", "residual", "", "", res, 100*res/d.sessionMS)
}

// visualSubmits estimates from a session log how often the crawler's
// visual submit strategy ran vision.DetectClass on a fresh rendering. The
// submit ladder reaches it once per data attempt that no DOM strategy
// resolved: on a page that moved on, every attempt but the last (and the
// last too when visual submit was what moved it); on the page a session
// ended on, every attempt. A page without fields tries it once, unless a
// DOM click-through moved it on.
func visualSubmits(lg *crawler.SessionLog) int {
	n := 0
	for i, pg := range lg.Pages {
		last := i == len(lg.Pages)-1
		switch {
		case len(pg.Fields) == 0:
			if pg.SubmitMethod != crawler.SubmitClickThru {
				n++
			}
		case last:
			n += pg.DataAttempts
		default:
			n += pg.DataAttempts - 1
			if pg.SubmitMethod == crawler.SubmitVisual {
				n++
			}
		}
	}
	return n
}

// ocrSearchDist mirrors the crawler's label search distance: how far left
// of and above a field box the OCR fallback reads.
const ocrSearchDist = 150

// replaySessions crawls up to replaySites feed URLs one at a time with
// Crawler.Crawl (skipping URLs the triage plan fast-paths), capturing the
// pages served, then replays those pages through each layer.
func replaySessions(tr *tracer, opts core.Options, got map[string]float64) (decomposition, error) {
	var dec decomposition
	p, err := core.NewPipeline(opts)
	if err != nil {
		return dec, err
	}
	c := newCapture()
	// The replay is serial, so the URL being crawled names the session of
	// every request, and its span is their parent.
	cur, curSpan := "", -1
	installTiming(p, tr, func() int { return curSpan }, func(*http.Request) string { return cur }, c)
	root := tr.open("replay.sessions", -1, "")
	var logs []*crawler.SessionLog
	var sessionMS []float64
	sessions := map[int]bool{}
	pageOf := map[string]*crawler.PageLog{}
	for idx, u := range p.Feed.URLs() {
		if len(logs) == replaySites {
			break
		}
		if p.Triage.FastPath(idx, u) != nil {
			continue
		}
		cur = hostOfURL(u)
		curSpan = tr.open("crawler.Crawl", root, cur)
		lg := p.Crawler.Crawl(u)
		sessionMS = append(sessionMS, float64(tr.close(curSpan))/1e6)
		sessions[curSpan] = true
		logs = append(logs, lg)
		for i := range lg.Pages {
			key := cur + " " + lg.Pages[i].URL
			if pageOf[key] == nil {
				pageOf[key] = &lg.Pages[i]
			}
		}
	}
	tr.close(root)
	if len(logs) == 0 {
		return dec, fmt.Errorf("serial replay found no URL that takes a full session")
	}
	n := float64(len(logs))
	dec.sessions = len(logs)
	dec.sessionMS = sum(sessionMS) / n
	got["crawler.session_ms_p50"] = percentile(sessionMS, 0.50)
	got["crawler.session_ms_p99"] = percentile(sessionMS, 0.99)
	serves := tr.durations("phishserver.serve", sessions)
	serveMS, requests := sum(serves), len(serves)
	got["phishserver.share"] = serveMS / sum(sessionMS)
	roundTripMS := sum(tr.durations("transport.roundtrip", sessions))

	// Calls per site, from the replayed sessions' logs and logical spans.
	var renders, detects, ocrPages, embeds, described, visual int
	for _, lg := range logs {
		visual += visualSubmits(lg)
		for _, s := range lg.Trace {
			switch s.Name {
			case metricspkg.StageRender.String():
				renders++
			case metricspkg.StageDetect.String():
				detects++
			}
		}
		if len(lg.FirstPageEmbedding.Thumb) > 0 {
			embeds++
		}
		for _, pg := range lg.Pages {
			if pg.UsedOCR {
				ocrPages++
			}
			for _, f := range pg.Fields {
				if f.Description != "" {
					described++
				}
			}
		}
	}

	// Time per call: every captured page through each layer.
	images := map[string]*raster.Image{}
	for u, b := range c.images {
		if img, err := raster.Decode(b); err == nil {
			images[u] = img
		}
	}
	eng := ocr.New()
	layers := tr.open("replay.layers", -1, "")
	var parse, lay, rend, det, detClass, hash, emb, ocrT []float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, key := range c.order {
		sess, pageURL, _ := strings.Cut(key, " ")
		html := c.docs[key]
		base, err := url.Parse(pageURL)
		if err != nil {
			continue
		}
		resolve := func(src string) *raster.Image {
			if strings.HasPrefix(src, "data:") {
				img, _ := raster.DecodeDataURI(src) // a bad data URI paints as a placeholder, as in the browser
				return img
			}
			ref, err := base.Parse(src)
			if err != nil {
				return nil
			}
			return images[ref.String()]
		}
		var doc *dom.Node
		parse = append(parse, ms(tr.timed("dom.Parse", layers, sess, func() { doc = dom.Parse(html) })))
		lay = append(lay, ms(tr.timed("layout.Compute", layers, sess, func() { layout.Compute(doc, browser.ViewportWidth).Release() })))
		var rp *render.Page
		rend = append(rend, ms(tr.timed("render.Render", layers, sess, func() { rp = render.Render(doc, browser.ViewportWidth, resolve) })))
		shot := rp.Screenshot
		det = append(det, ms(tr.timed("vision.Detect", layers, sess, func() { p.Detector.Detect(shot) })))
		detClass = append(detClass, ms(tr.timed("vision.DetectClass", layers, sess, func() { p.Detector.DetectClass(shot, vision.ClassButton) })))
		hash = append(hash, ms(tr.timed("phash.Compute", layers, sess, func() { phash.Compute(shot) })))
		emb = append(emb, ms(tr.timed("visualphish.EmbedCropped", layers, sess, func() { visualphish.EmbedCropped(shot) })))
		if pl := pageOf[key]; pl != nil && pl.UsedOCR {
			// The crawler's OCR fallback: one ink mask per rendering, then
			// one label search per field DOM analysis could not describe.
			ocrT = append(ocrT, ms(tr.timed("ocr.TextNearMask", layers, sess, func() {
				m := ocr.NewMask(shot)
				for _, f := range pl.Fields {
					if f.UsedOCR {
						eng.TextNearMask(m, f.Box, ocrSearchDist)
					}
				}
				m.Release()
			})))
		}
		rp.Release()
	}
	var pred []float64
	for _, lg := range logs {
		sess := hostOfURL(lg.SeedURL)
		for _, pg := range lg.Pages {
			for _, f := range pg.Fields {
				if f.Description != "" {
					pred = append(pred, ms(tr.timed("textclass.PredictThreshold", layers, sess, func() {
						p.FieldClassifier.PredictThreshold(f.Description, crawler.ConfidenceThreshold, string(fieldspec.Unknown))
					})))
				}
			}
		}
	}
	tr.close(layers)
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return sum(xs) / float64(len(xs))
	}
	got["dom.parse_us_per_page"] = mean(parse) * 1e3
	got["layout.compute_us_per_page"] = mean(lay) * 1e3
	got["render.render_ms_per_page"] = mean(rend)
	got["ocr.recognize_ms_per_page"] = mean(ocrT)
	got["vision.detect_ms_per_page"] = mean(det)
	got["visualphish.embed_us_per_page"] = mean(emb) * 1e3
	got["textclass.predict_us_per_field"] = mean(pred) * 1e3

	perReq := 0.0
	if requests > 0 {
		perReq = serveMS / float64(requests)
	}
	dec.rows = []decompRow{
		{"phishserver.serve", perReq, float64(requests) / n},
		{"dom.Parse", mean(parse), float64(c.nDocs) / n},
		{"render.Render (+layout)", mean(rend), float64(renders+visual) / n},
		{"ocr.TextNearMask", mean(ocrT), float64(ocrPages) / n},
		{"vision.Detect", mean(det), float64(detects) / n},
		{"vision.DetectClass", mean(detClass), float64(visual) / n},
		{"phash.Compute", mean(hash), float64(detects) / n},
		{"visualphish.EmbedCropped", mean(emb), float64(embeds) / n},
		{"textclass.PredictThreshold", mean(pred), float64(described) / n},
	}
	if requests > 0 {
		dec.rows = append(dec.rows, decompRow{"chaos wait", (roundTripMS - serveMS) / float64(requests), float64(requests) / n})
	}
	got["crawler.residual_frac"] = (dec.sessionMS - dec.accounted()) / dec.sessionMS
	return dec, nil
}
