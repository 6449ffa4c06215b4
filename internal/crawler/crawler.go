// Package crawler implements the paper's primary contribution: the
// intelligent phishing crawler of Section 4. Given a phishing URL, it loads
// the page in a fresh browser profile, identifies and classifies every
// input field (DOM analysis with an OCR fallback), forges syntactically
// valid data with the faker, submits it through a ladder of strategies
// (Enter key, DOM submit button, programmatic form submission, and visual
// button detection), detects page transitions via URL or lightweight DOM
// hash, and walks the entire multi-stage phishing UX until no more progress
// can be made — collecting the logs the analysis layer (Section 5) runs on.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"time"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/faker"
	"repro/internal/fieldspec"
	"repro/internal/metrics"
	"repro/internal/ocr"
	"repro/internal/phash"
	"repro/internal/raster"
	"repro/internal/script"
	"repro/internal/textclass"
	"repro/internal/trace"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// ConfidenceThreshold is the reject threshold of the field classifier
// (Section 4.2): predictions below it are labelled unknown.
const ConfidenceThreshold = 0.8

// MaxDataAttempts is how many times freshly forged data is submitted to one
// page before the session aborts (Section 4.3: "up to three times").
const MaxDataAttempts = 3

// DefaultMaxPages bounds the number of page transitions per session,
// standing in for the paper's 20-minute wall-clock timeout.
const DefaultMaxPages = 10

// DefaultSessionBudget is the per-session wall-clock budget: the paper's
// 20-minute session timeout scaled to the synthetic corpus's timescale
// (sessions complete in milliseconds, so 20s is proportionally generous).
const DefaultSessionBudget = 20 * time.Second

// ResolveSessionBudget applies the session budget's default: 0 becomes
// DefaultSessionBudget and a negative budget (none) becomes -1, so every
// spelling of "no budget" resolves alike.
func ResolveSessionBudget(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return DefaultSessionBudget
	case d < 0:
		return -1
	}
	return d
}

// Submit strategy names, in ladder order (Section 4.3).
const (
	SubmitEnter       = "enter"
	SubmitButton      = "button"
	SubmitFormAction  = "form-action"
	SubmitVisual      = "visual"
	SubmitClickThru   = "click-through"
	SubmitVisualClick = "visual-click-through"
)

// Session outcomes.
const (
	OutcomeCompleted = "completed" // reached a page with nothing left to do
	OutcomeStuck     = "stuck"     // data never accepted / no interactable element
	OutcomePageLimit = "page-limit"
	OutcomeError     = "error" // unclassified navigation failure

	// Failure taxonomy (the operational outcomes a real crawl of reported
	// phishing URLs produces; injected by internal/chaos in synthetic runs).
	OutcomeDead        = "dead"         // connection refused: the site is gone
	OutcomeTimeout     = "timeout"      // fetch deadline or session budget exhausted
	OutcomeServerError = "server-error" // the landing page answered with a 5xx
	OutcomeTruncated   = "truncated"    // response body cut off mid-transfer
	OutcomeTakedown    = "takedown"     // a hosting-provider suspension page
	OutcomeBenign      = "benign"       // a parked/benign page: nothing phishing-like to measure

	// Triage fast-path outcomes (internal/triage): sessions that never
	// spawned a browser because the pre-session funnel resolved them.
	OutcomeAttributed = "attributed"  // near-duplicate of an indexed campaign
	OutcomeTriagedOut = "triaged-out" // cut by the lexical top-K stage
)

// Retryable reports whether outcome names a transient failure worth
// re-queueing: the farm's retry queue consults it before backing off.
// Takedown pages and healthy outcomes are final.
func Retryable(outcome string) bool {
	switch outcome {
	case OutcomeDead, OutcomeTimeout, OutcomeServerError, OutcomeTruncated, OutcomeError:
		return true
	case OutcomeCompleted, OutcomeStuck, OutcomePageLimit, OutcomeTakedown,
		OutcomeBenign, OutcomeAttributed, OutcomeTriagedOut:
		// OutcomeBenign is final at the farm level: re-running the identical
		// honest profile would measure the identical benign page. The
		// adaptive uncloaking loop inside Crawl is what retries it, with a
		// mutated profile.
		return false
	}
	// Outcomes minted outside this package (the farm's gave-up/lost/panic
	// run-level outcomes) are final by definition.
	return false
}

// ClassifyError maps a navigation error onto the failure taxonomy.
func ClassifyError(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return OutcomeTimeout
	case errors.As(err, &ne) && ne.Timeout():
		return OutcomeTimeout
	case errors.Is(err, syscall.ECONNREFUSED):
		return OutcomeDead
	case errors.Is(err, io.ErrUnexpectedEOF):
		return OutcomeTruncated
	default:
		return OutcomeError
	}
}

// takedownPhrases mark hosting-provider suspension pages. They are matched
// against the lower-cased page title and text; generated phishing pages
// never contain them.
var takedownPhrases = []string{
	"has been suspended", "account suspended", "has been taken down",
	"domain has been seized", "this domain is parked",
}

// IsTakedownText reports whether a page's title and body text read as a
// hosting-provider takedown notice. Exported for the triage probe, which
// must classify a suspension page without building a PageLog (a shared
// suspension page must never found a triage "campaign").
func IsTakedownText(title, text string) bool {
	joined := strings.ToLower(title + " " + text)
	for _, phrase := range takedownPhrases {
		if strings.Contains(joined, phrase) {
			return true
		}
	}
	return false
}

// isTakedownPage reports whether the observed page is a takedown notice.
func isTakedownPage(pl *PageLog) bool {
	return IsTakedownText(pl.Title, pl.Text)
}

// FieldLog records one identified, classified, and filled input field.
type FieldLog struct {
	Description string
	HTMLType    string
	Label       fieldspec.Type
	Confidence  float64
	UsedOCR     bool
	Value       string
	// Box is the field's rendering bounding box, used by the CAPTCHA
	// verification heuristic (a text CAPTCHA needs an input beside it).
	Box raster.Rect
}

// PageLog records everything collected about one visited page.
type PageLog struct {
	Index        int
	URL          string
	Host         string
	Status       int
	Title        string
	Text         string
	DOMHash      string
	PHash        phash.Hash
	Fields       []FieldLog
	UsedOCR      bool
	SubmitMethod string
	DataAttempts int
	Listeners    []script.Listener
	ScriptSrcs   []string
	Detections   []vision.Detection
	// DetectionHashes holds the perceptual hash of each detection's crop
	// (parallel to Detections), enabling the visual-CAPTCHA exemplar
	// verification of Section 5.3.2 without retaining screenshots.
	DetectionHashes []phash.Hash
}

// HasInputs reports whether the page presented any fillable fields.
func (p *PageLog) HasInputs() bool { return len(p.Fields) > 0 }

// FieldTypes returns the classified types of the page's fields.
func (p *PageLog) FieldTypes() []fieldspec.Type {
	out := make([]fieldspec.Type, len(p.Fields))
	for i, f := range p.Fields {
		out[i] = f.Label
	}
	return out
}

// SessionLog is the full record of one crawl session.
type SessionLog struct {
	SiteID     string
	SeedURL    string
	Brand      string
	Category   string
	CampaignID string
	Pages      []PageLog
	NetLog     []browser.NetRequest
	Outcome    string
	// Error carries the failure detail behind an error-class Outcome: the
	// raw navigation error for classified failures, and the preserved
	// taxonomy class once the farm marks a session gave-up.
	Error string
	// Attempts is how many times the farm ran this session (1 = first
	// try); set by the farm's retry queue.
	Attempts int
	// FeedIndex is this session's position in the crawl feed, recorded by
	// the farm. Journaled and exported logs are re-assembled in feed order
	// by this index, and a resumed crawl derives the same per-session
	// seeds from it that the uninterrupted run would have used.
	FeedIndex int
	// Trace is the session's span tree (session → page → stage) on the
	// session-logical clock: what the crawler actually did, in order, with
	// work-proportional durations. Being logical, it is a pure function of
	// the session's content — byte-stable across runs, worker counts, and
	// journal resume — and it is the single source the farm derives
	// Stats.Stages latency histograms from.
	Trace []trace.Span `json:",omitempty"`
	// FirstPageEmbedding supports campaign clustering and the cloning
	// analysis without retaining full screenshots.
	FirstPageEmbedding visualphish.Embedding
	// Triage verdicts (internal/triage; zero/empty when triage is off, and
	// omitted from exports so non-triage session bytes are unchanged).
	// TriageScore is the URL-lexical phishiness score; TriageCampaign is
	// the triage campaign this session founded or was attributed to;
	// TriageSimilarity is the attribution similarity for fast-path
	// sessions.
	TriageScore      float64 `json:",omitempty"`
	TriageCampaign   string  `json:",omitempty"`
	TriageSimilarity float64 `json:",omitempty"`
	// Cloak records the adaptive uncloaking attempts when the session's
	// first honest crawl landed on a benign/parked page and the loop
	// re-crawled with mutated profiles (nil otherwise, and omitted from
	// exports so non-cloak session bytes are unchanged).
	Cloak *CloakLog `json:",omitempty"`
}

// Crawler drives sessions. It is stateless across sessions except for the
// injected models, so one Crawler can be shared by the farm's workers.
type Crawler struct {
	// Classifier labels input-field descriptions (nil disables
	// classification: every field becomes unknown).
	Classifier *textclass.Model
	// Detector finds buttons and CAPTCHAs visually (nil disables the
	// visual submit strategy).
	Detector *vision.Detector
	// OCR reads labels out of renderings.
	OCR *ocr.Engine
	// NewBrowser builds the fresh per-session browser profile.
	NewBrowser func() *browser.Browser
	// MaxPages bounds transitions per session.
	MaxPages int
	// SessionBudget bounds one session's wall clock, cancelling in-flight
	// fetches when it expires (the paper's 20-minute timeout). 0 uses
	// DefaultSessionBudget; negative disables the budget.
	SessionBudget time.Duration
	// FakerSeed seeds the per-session forged-data generator and the
	// uncloaking loop's profile-mutation schedule.
	FakerSeed int64
	// CloakRetries is the adaptive uncloaking budget: how many times a
	// session that landed on a benign/parked page is re-crawled with a
	// profile mutated from the failed attempt's observed signals. 0 (the
	// default) disables the loop — an honest single crawl.
	CloakRetries int
	// Pool, when non-nil, recycles the per-session object graph (browser,
	// trace slab, render/mask buffers) across sessions instead of
	// allocating it fresh. Session exports are byte-identical either way;
	// see SessionPool for the recycling contract.
	Pool *SessionPool
	// Memo, when non-nil, shares the pixel-derived results of observing a
	// page (hashes, detections, the first-page embedding, identified fields)
	// across sessions that meet the same content, and the detection scans
	// typed pages are rescanned from; one memo is shared by a farm's
	// workers. Session exports are byte-identical either way; see Memo.
	Memo *Memo
	// WaitHook, when non-nil, is installed on each session's browser (see
	// browser.SetWaitHook): it runs around every transport round trip, so
	// the crawl farm can give the session's compute slot back while it
	// waits on the network.
	WaitHook func() (resume func())

	// DisableOCR turns off the visual label fallback of Section 4.1 — the
	// ablation quantifying what a DOM-only crawler would miss.
	DisableOCR bool
	// URLOnlyTransitions disables the DOM-hash progress check of Section
	// 4.4, detecting transitions by URL change alone — the ablation
	// quantifying premature session termination on JS-swap pages.
	URLOnlyTransitions bool
}

// crawlAttempt runs one end-to-end crawl of seedURL presenting prof, with
// the jar optionally seeded from a prior visit's snapshot. It returns the
// session log and the final jar snapshot (for cookie persistence across
// adaptive attempts). Crawl wraps it with the uncloaking loop.
func (c *Crawler) crawlAttempt(seedURL string, prof browser.Profile, jar map[string]string) (lg *SessionLog, jarOut map[string]string) {
	maxPages := c.MaxPages
	if maxPages <= 0 {
		maxPages = DefaultMaxPages
	}
	eng := c.OCR
	if eng == nil && !c.DisableOCR {
		eng = ocr.New()
	}
	if c.DisableOCR {
		eng = nil
	}
	budget := ResolveSessionBudget(c.SessionBudget)
	ctx := context.Background()
	cancel := func() {}
	if budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	defer cancel()

	// Pooled mode recycles the whole session graph; unpooled builds it
	// fresh. Both paths produce byte-identical exports — pooled mode copies
	// the net log and trace out of recycled storage before release.
	pooled := c.Pool != nil
	var (
		b  *browser.Browser
		tr *trace.Session
		sc *sessionScratch
	)
	if pooled {
		sc = c.Pool.acquire(c.NewBrowser)
		b, tr = sc.browser, sc.trace
	} else {
		b = c.NewBrowser()
		// The trace session owns the logical clock for the whole session:
		// the browser's log timestamps and the span boundaries advance one
		// shared timeline, so the exported trace is byte-stable for a
		// fixed seed.
		tr = trace.NewSession()
	}
	b.SetContext(ctx)
	b.SetProfile(prof)
	b.SetWaitHook(c.WaitHook)
	if len(jar) > 0 {
		b.ImportCookies(jar)
	}
	fk := faker.New(c.FakerSeed)
	log := &SessionLog{SeedURL: seedURL}

	var page *browser.Page
	b.SetClock(tr.Clock())
	root := tr.Begin(trace.KindSession, seedURL)
	defer func() {
		// The jar snapshot must be taken before the pooled browser goes
		// back to its pool (the next acquire resets it).
		jarOut = b.CookieSnapshot()
		tr.End(root)
		if !pooled {
			log.Trace = tr.Spans()
			return
		}
		log.Trace = append([]trace.Span(nil), tr.Spans()...)
		if page != nil {
			page.ReleaseRender()
		}
		c.Pool.release(sc)
	}()
	exportNetLog := func() []browser.NetRequest {
		if !pooled {
			return b.NetLog
		}
		if len(b.NetLog) == 0 {
			return nil
		}
		return append([]browser.NetRequest(nil), b.NetLog...)
	}

	var err error
	page, err = b.Navigate(seedURL)
	if err != nil {
		log.Outcome = ClassifyError(err)
		log.Error = err.Error()
		log.NetLog = exportNetLog()
		return log, nil
	}
	if page.Status >= http.StatusInternalServerError {
		log.Outcome = OutcomeServerError
		log.Error = fmt.Sprintf("HTTP %d on landing page", page.Status)
		log.NetLog = exportNetLog()
		return log, nil
	}
	log.FirstPageEmbedding = c.Memo.embedding(page)

	for step := 0; ; step++ {
		if ctx.Err() != nil {
			log.Outcome = OutcomeTimeout
			log.Error = "session budget exhausted"
			break
		}
		if step >= maxPages {
			log.Outcome = OutcomePageLimit
			break
		}
		pg := tr.Begin(trace.KindPage, page.URL)
		pl := c.observePage(page, step, tr)
		if isTakedownPage(&pl) {
			log.Pages = append(log.Pages, pl)
			log.Outcome = OutcomeTakedown
			tr.End(pg)
			break
		}
		if isBenignParkedPage(&pl) {
			// A parked/benign page: either the URL really hosts nothing, or
			// a cloaking kit served its decoy to this profile. The Crawl
			// wrapper decides whether to re-crawl with a mutated profile.
			log.Pages = append(log.Pages, pl)
			log.Outcome = OutcomeBenign
			tr.End(pg)
			break
		}
		fields := c.identifyFields(page, eng, tr)
		c.classifyAndLog(&pl, fields)

		var next *browser.Page
		// The submit span needs no explicit work cost: every keystroke and
		// request the ladder performs ticks the shared logical clock.
		submit := tr.Begin(trace.KindStage, metrics.StageSubmit.String())
		if len(fields) > 0 {
			next = c.fillAndSubmit(page, fields, &pl, fk)
		} else {
			next = c.clickThrough(page, &pl)
		}
		tr.End(submit)
		log.Pages = append(log.Pages, pl)
		tr.End(pg)
		if next == nil {
			switch {
			case ctx.Err() != nil:
				// Interactions failed because the budget ran out, not
				// because the site resisted them.
				log.Outcome = OutcomeTimeout
				log.Error = "session budget exhausted"
			case pl.SubmitMethod == "" && len(fields) == 0:
				// Nothing to interact with: natural end of the UX.
				log.Outcome = OutcomeCompleted
			default:
				log.Outcome = OutcomeStuck
			}
			break
		}
		// A mid-flow error page is NOT an operational failure: the paper
		// measures it as the HTTP-error UX-termination pattern (Section
		// 5.2.3), so the loop continues and logs it like any other page.
		// In pooled mode the page we are leaving hands its render buffers
		// back (content swaps return the SAME page — nothing to release).
		if pooled && next != page {
			page.ReleaseRender()
		}
		page = next
	}
	log.NetLog = exportNetLog()
	return log, nil
}

// observePage collects the per-page metadata of Section 4.5, recording
// render and detect stage spans with work-proportional logical costs (DOM
// nodes rendered; detections scored) so trace durations reflect relative
// stage cost deterministically. The pixel-derived fields come from observe,
// which renders the page only when the memo has not seen its content; the
// spans are the same either way.
func (c *Crawler) observePage(p *browser.Page, index int, tr *trace.Session) PageLog {
	render := tr.Begin(trace.KindStage, metrics.StageRender.String())
	tr.Advance(countNodes(p.Doc))
	tr.End(render)
	obs := c.observe(p)
	pl := PageLog{
		Index:      index,
		URL:        p.URL,
		Host:       p.Host(),
		Status:     p.Status,
		Title:      dom.Title(p.Doc),
		Text:       p.Doc.InnerText(),
		DOMHash:    p.DOMHash(),
		PHash:      obs.PHash,
		Listeners:  append([]script.Listener(nil), p.ListenerLog...),
		ScriptSrcs: script.ExternalScripts(p.Doc),
	}
	if c.Detector != nil {
		detect := tr.Begin(trace.KindStage, metrics.StageDetect.String())
		tr.Advance(1 + 8*len(obs.Detections))
		tr.End(detect)
		pl.Detections, pl.DetectionHashes = obs.Detections, obs.DetectionHashes
	}
	return pl
}

// countNodes is the render stage's logical work cost: one tick per DOM
// node, the quantity render time actually scales with.
func countNodes(doc *dom.Node) int {
	n := 0
	doc.Walk(func(*dom.Node) bool {
		n++
		return true
	})
	return n
}

func (c *Crawler) classifyAndLog(pl *PageLog, fields []FieldInfo) {
	for _, f := range fields {
		fl := FieldLog{
			Description: f.Description,
			HTMLType:    f.HTMLType,
			UsedOCR:     f.UsedOCR,
			Label:       fieldspec.Unknown,
			Box:         f.Box,
		}
		if c.Classifier != nil && f.Description != "" {
			label, conf := c.Classifier.PredictThreshold(
				f.Description, ConfidenceThreshold, string(fieldspec.Unknown))
			fl.Label = fieldspec.Type(label)
			fl.Confidence = conf
		}
		if fl.UsedOCR {
			pl.UsedOCR = true
		}
		pl.Fields = append(pl.Fields, fl)
	}
}

// fillAndSubmit forges data for every field and walks the submit-strategy
// ladder, retrying with fresh data when the site rejects a submission
// (detected as "no page transition"). Returns the new page, or nil when the
// site never accepted the data.
func (c *Crawler) fillAndSubmit(p *browser.Page, fields []FieldInfo, pl *PageLog, fk *faker.Faker) *browser.Page {
	beforeURL, beforeHash := p.URL, p.DOMHash()
	transitioned := func(np *browser.Page) bool {
		if np == nil {
			return false
		}
		if c.URLOnlyTransitions {
			return np.URL != beforeURL
		}
		return np.URL != beforeURL || np.DOMHash() != beforeHash
	}
	// record notes which strategy actually performed a submission (a POST
	// reached the site), even when the site re-served the same page: the
	// Section 5.1.2 "12% required visual detection" measurement counts the
	// interaction used, not whether the flow continued.
	record := func(method string) {
		if pl.SubmitMethod == "" {
			pl.SubmitMethod = method
		}
	}
	// Consent checkboxes ("I agree to the terms") gate many real sign-up
	// forms; tick them all before submitting, as a user would.
	for _, cb := range dom.MustQuery(p.Doc, `input[type=checkbox]`) {
		cb.SetAttr("value", "on")
		cb.SetAttr("checked", "checked")
	}
	for attempt := 0; attempt < MaxDataAttempts; attempt++ {
		pl.DataAttempts = attempt + 1
		// Forge and enter data (fresh values every attempt).
		for i, f := range fields {
			value := fk.ForType(pl.Fields[i].Label)
			pl.Fields[i].Value = value
			p.Type(f.Node, value)
		}
		// Strategy 1: Enter key with focus on the first input.
		if np, err := p.PressEnter(fields[0].Node); err == nil && np != nil {
			record(SubmitEnter)
			if transitioned(np) {
				pl.SubmitMethod = SubmitEnter
				return np
			}
		}
		// Strategy 2: DOM submit button (or a link styled as a button).
		if btn := findSubmitElement(p); btn != nil {
			if np, err := p.Click(btn); err == nil && np != nil {
				record(SubmitButton)
				if transitioned(np) {
					pl.SubmitMethod = SubmitButton
					return np
				}
			}
		}
		// Strategy 3: programmatic form.submit().
		if form := fields[0].Node.Closest("form"); form != nil {
			if np, err := p.SubmitForm(form); err == nil && np != nil {
				record(SubmitFormAction)
				if transitioned(np) {
					pl.SubmitMethod = SubmitFormAction
					return np
				}
			}
		}
		// Strategy 4: visual submit-button detection.
		if np, performed := c.visualSubmit(p, transitioned); performed {
			record(SubmitVisual)
			if np != nil {
				pl.SubmitMethod = SubmitVisual
				return np
			}
		}
	}
	return nil
}

// visualSubmit uses the object detector to find button-looking regions and
// clicks their centers. It reports whether any click actually performed an
// interaction, and returns the new page when the interaction progressed.
func (c *Crawler) visualSubmit(p *browser.Page, transitioned func(*browser.Page) bool) (*browser.Page, bool) {
	if c.Detector == nil {
		return nil, false
	}
	performed := false
	for _, det := range c.buttonDetections(p) {
		np, err := p.ClickAt(det.Box.CenterX(), det.Box.CenterY())
		if err != nil || np == nil {
			continue
		}
		performed = true
		if transitioned(np) {
			return np, true
		}
	}
	return nil, performed
}

// clickThrough handles input-less pages (Section 4.4): find a button-like
// element to advance, falling back to visual detection.
func (c *Crawler) clickThrough(p *browser.Page, pl *PageLog) *browser.Page {
	beforeURL, beforeHash := p.URL, p.DOMHash()
	transitioned := func(np *browser.Page) bool {
		if np == nil {
			return false
		}
		if c.URLOnlyTransitions {
			return np.URL != beforeURL
		}
		return np.URL != beforeURL || np.DOMHash() != beforeHash
	}
	// DOM buttons and button-like links first.
	for _, el := range clickCandidates(p.Doc) {
		if np, err := p.Click(el); err == nil && transitioned(np) {
			pl.SubmitMethod = SubmitClickThru
			return np
		}
	}
	// Visual detection of buttons that exist only as pixels.
	if np, _ := c.visualSubmit(p, transitioned); np != nil {
		pl.SubmitMethod = SubmitVisualClick
		return np
	}
	return nil
}

// buttonWords are link texts that mark an anchor as a styled button.
var buttonWords = []string{
	"next", "continue", "verify", "proceed", "submit", "download", "view",
	"sign in", "log in", "login", "start", "get started", "confirm", "ok",
	"accept", "agree", "unlock",
}

// findSubmitElement performs the DOM analysis of Section 4.3: button
// elements, input[type=submit|image], and hyperlinks styled as buttons.
func findSubmitElement(p *browser.Page) *dom.Node {
	doc := p.Doc
	if btn := dom.MustQuery(doc, `button, input[type=submit], input[type=image]`); len(btn) > 0 {
		return btn[0]
	}
	// Heuristics for links styled as buttons.
	if a := doc.FindFirst(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.Tag == "a" && looksLikeButton(n)
	}); a != nil {
		return a
	}
	return nil
}

// clickCandidates returns, in preference order, the elements worth clicking
// on an input-less page.
func clickCandidates(doc *dom.Node) []*dom.Node {
	out := dom.MustQuery(doc, `button, input[type=submit], input[type=image], input[type=button]`)
	out = append(out, doc.Find(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.Tag == "a" && looksLikeButton(n)
	})...)
	return out
}

// looksLikeButton applies the styled-link heuristics: a button-ish class
// name or short imperative text.
func looksLikeButton(a *dom.Node) bool {
	class := strings.ToLower(a.AttrOr("class", ""))
	if strings.Contains(class, "btn") || strings.Contains(class, "button") {
		return true
	}
	text := strings.ToLower(strings.TrimSpace(a.InnerText()))
	if text == "" || len(text) > 24 {
		return false
	}
	for _, w := range buttonWords {
		if text == w || strings.HasPrefix(text, w+" ") {
			return true
		}
	}
	return false
}
