// Package browser implements the headless-browser substrate the intelligent
// crawler drives, replacing Puppeteer + Chrome. It fetches pages over real
// net/http, parses them into a DOM, renders screenshots, interprets the
// page's declarative behaviour script (event listeners, keyloggers, content
// swaps, click zones), and exposes the interaction verbs the crawler needs:
// type into a field, press Enter, click an element or a coordinate, and
// submit a form programmatically. Along the way it records the three logs
// the paper's instrumentation collects (Section 4.5): network requests,
// addEventListener registrations, and triggered JS events.
package browser

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dom"
	"repro/internal/ocr"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/script"
)

// ViewportWidth is the fixed viewport the browser renders at.
const ViewportWidth = 800

// maxBodyBytes bounds response reads.
const maxBodyBytes = 4 << 20

// NetRequest is one entry in the network log.
type NetRequest struct {
	Method string
	URL    string
	Status int
	// CarriedData lists form/exfil values included in the request body,
	// used by the keylogging analysis to confirm pre-submit exfiltration.
	CarriedData []string
	// Kind labels the request: "document", "image", "beacon", "redirect".
	Kind string
	Time time.Time
	// Vary echoes the response's Vary header when present. Cloaking decoys
	// list the request dimensions their gate inspected there, and the
	// crawler's adaptive loop reads the signal back out of the net log.
	Vary string `json:",omitempty"`
	// JSChallenge echoes the response's X-JS-Challenge token when present —
	// the JS-capability probe a decoy page poses.
	JSChallenge string `json:",omitempty"`
}

// Event is one triggered JS event.
type Event struct {
	Type   string // "keydown", "click", "submit"
	Target string // tag or id of the target element
	Time   time.Time
}

// DefaultFetchTimeout bounds each fetch when Options.Timeout is unset.
const DefaultFetchTimeout = 10 * time.Second

// ResolveTimeout applies the fetch timeout's default: a non-positive
// timeout becomes DefaultFetchTimeout.
func ResolveTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultFetchTimeout
	}
	return d
}

// Browser is one browsing profile. Create a fresh Browser per crawl session
// to model the paper's clean-container-per-site setup (Section 4.6) — or,
// equivalently, Reset a recycled one: a reset browser is observationally
// identical to a new one.
type Browser struct {
	transport    http.RoundTripper
	cookies      map[string]string // minimal cookie jar: name -> value
	ctx          context.Context   // session context; fetch deadlines derive from it
	fetchTimeout time.Duration

	// recycle marks this browser as part of a pooled session graph: cached
	// renderings and ink masks are returned to their pools the moment a DOM
	// mutation invalidates them, because the pool's owner (the crawler)
	// guarantees nothing else holds them. Browsers outside a pool leave
	// invalidated buffers to the garbage collector, which is always safe.
	recycle bool

	// cookieNames is sorted-header scratch reused across requests.
	cookieNames []string

	// profile is the identity presented on every request; see Profile.
	profile Profile

	// wait, when set, brackets every transport round trip; see
	// SetWaitHook.
	wait func() (resume func())

	// NetLog accumulates every request across the session.
	NetLog []NetRequest
	// now supplies log timestamps. The default is a deterministic
	// session-logical clock (see sessionClock), not the wall clock: log
	// times are part of the journaled session bytes, and the journal's
	// resume guarantee is that a resumed run's records are byte-identical
	// to an uninterrupted run's.
	now func() time.Time
}

// sessionClock returns the browser's default timestamp source: a logical
// clock that starts at the Unix epoch and advances one millisecond per
// observation. Event ORDER — the only thing the analyses consume — is
// preserved, and two crawls of the same seed produce identical bytes.
// Wall-clock time stays behind the internal/metrics seam.
func sessionClock() func() time.Time {
	var ticks int64
	return func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond)).UTC()
	}
}

// SetClock replaces the browser's timestamp source. The crawler installs
// the session trace's logical clock here so browser log timestamps and
// trace span boundaries advance one shared deterministic timeline; the
// replacement must be another logical clock, never the wall clock (log
// times are journaled session bytes, pinned byte-identical across
// kill/resume). A nil clock keeps the current source.
func (b *Browser) SetClock(clock func() time.Time) {
	if clock != nil {
		b.now = clock
	}
}

// Options configures a Browser.
type Options struct {
	// Transport serves the requests. Tests and the crawl farm inject the
	// phishing-site registry here so no TCP sockets are needed; nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Timeout bounds each fetch. It is enforced as a per-request context
	// deadline (not http.Client.Timeout) so expiry surfaces as
	// context.DeadlineExceeded and the crawler can classify it.
	Timeout time.Duration
}

// New returns a fresh browser profile. Requests go straight to the
// transport — redirects and cookies are the browser's own job (each hop is
// logged), so the http.Client middle layer would only re-clone headers per
// request.
func New(opts Options) *Browser {
	opts.Timeout = ResolveTimeout(opts.Timeout)
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &Browser{
		transport:    transport,
		cookies:      map[string]string{},
		ctx:          context.Background(),
		fetchTimeout: opts.Timeout,
		profile:      DefaultProfile(),
		now:          sessionClock(),
	}
}

// Reset returns the browser to its freshly-created state while keeping
// allocated capacity (the cookie jar's buckets and the net log's backing
// array). A reset browser behaves identically to one returned by New with
// the same Options: empty jar, empty log, background session context, and
// a fresh session-logical clock starting at zero.
func (b *Browser) Reset() {
	clear(b.cookies)
	b.NetLog = b.NetLog[:0]
	b.ctx = context.Background()
	b.profile = DefaultProfile()
	b.now = sessionClock()
	b.wait = nil
}

// EnableRecycle opts this browser into pooled-session-graph mode: see the
// recycle field. Only the session pool's owner may enable it, because it
// asserts that nothing outside the current session holds renderings or
// masks across DOM mutations.
func (b *Browser) EnableRecycle() { b.recycle = true }

// SetContext installs ctx as the session context: every subsequent fetch
// derives its per-request deadline from it, so cancelling ctx aborts the
// session's in-flight network work. The crawler installs its per-session
// wall-clock budget here (Section 4.6's 20-minute session timeout).
func (b *Browser) SetContext(ctx context.Context) {
	if ctx != nil {
		b.ctx = ctx
	}
}

// SetWaitHook installs the session's wait hook: wait is called just
// before each transport round trip and the resume it returns as soon as
// the round trip ends, normally or by panic. The crawl farm uses it to
// give a session's compute slot back while the session waits on the
// network. Nil removes the hook; Reset removes it too.
func (b *Browser) SetWaitHook(wait func() (resume func())) { b.wait = wait }

// send is the browser's one transport round trip, bracketed by the wait
// hook.
func (b *Browser) send(req *http.Request) (*http.Response, error) {
	if b.wait != nil {
		defer b.wait()()
	}
	return b.transport.RoundTrip(req)
}

// Page is one loaded page: its DOM, rendering, behaviours, and event state.
type Page struct {
	URL    string
	Status int
	Doc    *dom.Node
	// Behavior is the parsed behaviour document.
	Behavior script.Behavior
	// ListenerLog is the addEventListener record for this page.
	ListenerLog []script.Listener
	// EventLog is the triggered-event record for this page.
	EventLog []Event
	// images holds each fetched image resource by URL as validated runs;
	// render paints them into the screenshot, so no decoded pixels are
	// kept between renders.
	images map[string]*raster.Runs

	browser *Browser
	page    *render.Page // lazy render cache
	ocrMask *ocr.Mask    // lazy binarization of the current screenshot
	domHash string       // lazy structural hash of Doc
	// key is the lazy ContentKey; hasKey marks it computed.
	key    [sha256.Size]byte
	hasKey bool
	// scanKey and holes are the lazy ScanKey; hasScanKey marks them
	// computed.
	scanKey    [sha256.Size]byte
	holes      []raster.Rect
	hasScanKey bool
}

// ErrTooManyRedirects limits redirect chains.
var ErrTooManyRedirects = errors.New("browser: too many redirects")

// Navigate fetches url, follows redirects, parses the page, loads its image
// resources, and interprets its behaviour script.
func (b *Browser) Navigate(rawURL string) (*Page, error) {
	body, finalURL, status, err := b.fetch("GET", rawURL, nil, "document")
	if err != nil {
		return nil, err
	}
	return b.buildPage(body, finalURL, status)
}

func (b *Browser) buildPage(body []byte, pageURL string, status int) (*Page, error) {
	doc := dom.Parse(string(body))
	behavior, err := script.Extract(doc)
	if err != nil {
		// Malformed behaviour scripts are treated like broken JS: ignored.
		behavior = script.Behavior{}
	}
	p := &Page{
		URL:      pageURL,
		Status:   status,
		Doc:      doc,
		Behavior: behavior,
		browser:  b,
		images:   map[string]*raster.Runs{},
	}
	// Record addEventListener calls made at load time.
	p.ListenerLog = append(p.ListenerLog, behavior.Listeners...)
	// Prefetch image resources so rendering is synchronous.
	p.prefetchImages()
	return p, nil
}

// fetch performs one logged request, handling cookies and redirect chains.
func (b *Browser) fetch(method, rawURL string, form url.Values, kind string) (body []byte, finalURL string, status int, err error) {
	cur := rawURL
	// Carried values are logged in sorted field order: map iteration order
	// would otherwise make two identical runs export different logs, and
	// the crawl journal's resume guarantee is that a resumed run's records
	// match an uninterrupted run's.
	var carried []string
	if len(form) > 0 {
		keys := make([]string, 0, len(form))
		for k := range form {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// Every value of a multi-valued field is carried — keyed exfil
		// beacons repeat the "d" field per keystroke, and logging only the
		// first value would under-count the exfiltrated data.
		for _, k := range keys {
			carried = append(carried, form[k]...)
		}
	}
	jsAnswered := false
	for hop := 0; hop < 10; hop++ {
		data, status, loc, challenge, err := b.roundTrip(method, cur, form, kind, carried)
		if err != nil {
			return nil, cur, 0, err
		}
		if status >= 300 && status < 400 {
			if loc == "" {
				return nil, cur, status, nil
			}
			next, jerr := joinURL(cur, loc)
			if jerr != nil {
				return nil, cur, status, jerr
			}
			cur = next
			// 307/308 preserve the method and body across the hop — a kit
			// that 307-redirects the credential POST must still observe the
			// submission. Every other 3xx re-issues as GET, as browsers do
			// for 301/302/303.
			if status != http.StatusTemporaryRedirect && status != http.StatusPermanentRedirect {
				method, form = "GET", nil
			}
			kind = "redirect"
			continue
		}
		if challenge != "" && b.profile.JSCapable && !jsAnswered {
			// A JS-capability probe on the response: answer it in the jar
			// and re-request, as the kit's probe script would. One answer
			// per fetch — a rejected answer must not loop.
			b.answerChallenge(challenge)
			jsAnswered = true
			continue
		}
		return data, cur, status, nil
	}
	return nil, cur, 0, ErrTooManyRedirects
}

// roundTrip issues one HTTP request under the per-fetch deadline (derived
// from the session context, so a session-budget cancellation aborts it),
// logs it, and absorbs Set-Cookie headers — inserting live cookies and
// deleting entries the server expires (Max-Age=0 or an epoch-or-earlier
// Expires). Redirect statuses return the Location header with an empty
// body; challenge carries the response's JS-capability probe token.
func (b *Browser) roundTrip(method, cur string, form url.Values, kind string, carried []string) (data []byte, status int, location, challenge string, err error) {
	ctx, cancel := context.WithTimeout(b.ctx, b.fetchTimeout)
	defer cancel()
	var req *http.Request
	if method == "POST" && form != nil {
		req, err = http.NewRequestWithContext(ctx, method, cur, strings.NewReader(form.Encode()))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, method, cur, nil)
	}
	if err != nil {
		return nil, 0, "", "", fmt.Errorf("browser: building request: %w", err)
	}
	b.applyProfile(req.Header)
	// The Cookie header is part of the request bytes the server (and the
	// keylogging analysis) observes; emit it in sorted name order so it
	// never depends on map iteration. Built as one header value (the wire
	// format AddCookie produces) with reused name scratch.
	if len(b.cookies) > 0 {
		names := b.cookieNames[:0]
		for name := range b.cookies {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for i, name := range names {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(name)
			sb.WriteByte('=')
			sb.WriteString(b.cookies[name])
		}
		req.Header.Set("Cookie", sb.String())
		b.cookieNames = names
	}
	resp, rerr := b.send(req)
	if rerr != nil {
		b.NetLog = append(b.NetLog, NetRequest{Method: method, URL: cur, Status: 0, Kind: kind, Time: b.now()})
		return nil, 0, "", "", fmt.Errorf("browser: fetch %s: %w", cur, rerr)
	}
	defer resp.Body.Close()
	for _, c := range resp.Cookies() {
		if epochExpired(c) {
			delete(b.cookies, c.Name)
			continue
		}
		b.cookies[c.Name] = c.Value
	}
	challenge = resp.Header.Get(JSChallengeHeader)
	entry := NetRequest{
		Method: method, URL: cur, Status: resp.StatusCode, Kind: kind, Time: b.now(),
		Vary: resp.Header.Get("Vary"), JSChallenge: challenge,
	}
	if method == "POST" {
		entry.CarriedData = carried
	}
	b.NetLog = append(b.NetLog, entry)
	if resp.StatusCode >= 300 && resp.StatusCode < 400 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		return nil, resp.StatusCode, resp.Header.Get("Location"), challenge, nil
	}
	raw, rerr := readBody(resp.Body, resp.ContentLength)
	if rerr != nil {
		return nil, resp.StatusCode, "", challenge, fmt.Errorf("browser: reading body of %s: %w", cur, rerr)
	}
	return raw, resp.StatusCode, "", challenge, nil
}

// readBody reads body to its end, at most maxBodyBytes of it, as io.ReadAll
// does. A declared length (-1 when unknown) sizes the buffer once, so a body
// as long as it says is read without growing one.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared >= maxBodyBytes {
		return io.ReadAll(io.LimitReader(body, maxBodyBytes))
	}
	r := io.LimitedReader{R: body, N: maxBodyBytes}
	// One spare byte lets the read that reports the end land in the buffer.
	buf := make([]byte, 0, declared+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			// Longer than declared: read the rest the ordinary way.
			rest, err := io.ReadAll(io.LimitReader(body, r.N))
			return append(buf, rest...), err
		}
	}
}

// joinURL resolves ref against base.
func joinURL(base, ref string) (string, error) {
	bu, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("browser: bad base url: %w", err)
	}
	ru, err := url.Parse(ref)
	if err != nil {
		return "", fmt.Errorf("browser: bad ref url: %w", err)
	}
	return bu.ResolveReference(ru).String(), nil
}

// prefetchImages fetches every img src and background-image URL.
func (p *Page) prefetchImages() {
	fetchOne := func(src string) {
		if src == "" {
			return
		}
		if _, done := p.images[src]; done {
			return
		}
		if strings.HasPrefix(src, "data:") {
			if r, err := raster.ParseDataURI(src); err == nil {
				p.images[src] = r
			}
			return
		}
		abs, err := joinURL(p.URL, src)
		if err != nil {
			return
		}
		body, _, status, err := p.browser.fetch("GET", abs, nil, "image")
		if err != nil || status != http.StatusOK {
			return
		}
		if r, err := raster.ParseRuns(body); err == nil {
			p.images[src] = r // keeps the response bytes, which nothing else holds
		}
	}
	for _, img := range p.Doc.ElementsByTag("img") {
		fetchOne(img.AttrOr("src", ""))
	}
	p.Doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			if style, ok := n.Attr("style"); ok && strings.Contains(style, "url(") {
				// Reuse the layout parser's extraction via a cheap scan.
				if i := strings.Index(style, "url("); i >= 0 {
					rest := style[i+4:]
					if j := strings.IndexByte(rest, ')'); j >= 0 {
						fetchOne(strings.Trim(strings.TrimSpace(rest[:j]), `'"`))
					}
				}
			}
		}
		return true
	})
}

// Render returns the page's layout and screenshot, computing them on first
// use and after DOM mutations (invalidate with MarkDirty).
func (p *Page) Render() *render.Page {
	if p.page == nil {
		p.page = render.Render(p.Doc, ViewportWidth, func(u string) *raster.Runs {
			return p.images[u]
		})
	}
	return p.page
}

// MarkDirty invalidates the cached rendering (and the OCR mask derived
// from it) after DOM mutation.
func (p *Page) MarkDirty() {
	p.domHash = ""
	p.hasKey, p.hasScanKey = false, false
	if p.browser != nil && p.browser.recycle {
		// Pooled session graph: the crawler owns every rendering, so the
		// invalidated buffers go straight back to their pools.
		p.ReleaseRender()
		return
	}
	p.page = nil
	// The old mask is dropped, not Released: a caller that fetched it
	// before the mutation may still be reading it.
	p.ocrMask = nil
}

// ReleaseRender returns the page's cached rendering and ink mask to their
// pools and clears the caches. The caller asserts nothing else holds the
// screenshot, layout, or mask (or any view of their storage). The page
// itself remains usable — the next Render recomputes.
func (p *Page) ReleaseRender() {
	if p.page != nil {
		p.page.Release()
		p.page = nil
	}
	if p.ocrMask != nil {
		p.ocrMask.Release()
		p.ocrMask = nil
	}
}

// Screenshot returns the current page screenshot.
func (p *Page) Screenshot() *raster.Image { return p.Render().Screenshot }

// OCRMask returns the ink mask of the current screenshot, binarizing on
// first use. Repeat OCR passes over the same rendering (label lookup per
// input field) share this one mask; MarkDirty invalidates it along with
// the rendering.
func (p *Page) OCRMask() *ocr.Mask {
	if p.ocrMask == nil {
		p.ocrMask = ocr.NewMask(p.Screenshot())
	}
	return p.ocrMask
}

// DOMHash returns the lightweight structural hash used for page-transition
// detection, computed once per rendering generation (MarkDirty invalidates
// it along with the render caches).
func (p *Page) DOMHash() string {
	if p.domHash == "" {
		p.domHash = dom.StructureHash(p.Doc)
	}
	return p.domHash
}

// ContentKey returns a SHA-256 over everything a rendering of the page
// reads: the document tree (node types, tags, attributes in order, text)
// and the image table (each src with the exact PXI bytes its runs were
// parsed from; an image that failed to load is absent). Pages with equal
// keys render bit-identical screenshots, so results derived from the
// pixels can be shared between them. Every string is length-prefixed and
// each node's children are closed by a marker, so two different contents
// never encode to the same bytes; dom.Render's HTML is not such an
// encoding (adjacent text nodes merge, children of void tags vanish). Like
// DOMHash it is computed once per rendering generation and MarkDirty
// invalidates it.
func (p *Page) ContentKey() [sha256.Size]byte {
	if !p.hasKey {
		p.key = contentKey(p.Doc, p.images, nil)
		p.hasKey = true
	}
	return p.key
}

// Markers of the content-key encoding: a node opens with keyNode and its
// child list closes with keyClose.
const (
	keyNode  = 1
	keyClose = 0
)

// contentKey hashes the canonical encoding of doc and images: a preorder
// walk writing each node as keyNode, its type, tag, data and attributes,
// and keyClose after its children; then the image count and each image's
// src and bytes in src order. With role (ScanKey's) it writes each
// element's role, which role is called for in preorder, before its
// attributes and leaves out the attributes the role names.
func contentKey(doc *dom.Node, images map[string]*raster.Runs, role func(*dom.Node) scanRole) [sha256.Size]byte {
	h := sha256.New()
	// A hash's Write never fails, so neither do the buffered writes.
	w := bufio.NewWriterSize(h, 1024)
	var scratch [binary.MaxVarintLen64]byte
	num := func(v int) { w.Write(binary.AppendUvarint(scratch[:0], uint64(v))) }
	str := func(s string) {
		num(len(s))
		w.WriteString(s)
	}
	for n := doc; n != nil; {
		w.WriteByte(keyNode)
		num(int(n.Type))
		str(n.Tag)
		str(n.Data)
		r := roleAll
		if role != nil && n.Type == dom.ElementNode {
			r = role(n)
			w.WriteByte(byte(r))
		}
		kept := len(n.Attrs)
		if r != roleAll {
			kept = 0
			for _, a := range n.Attrs {
				if !r.drops(a.Name) {
					kept++
				}
			}
		}
		num(kept)
		for _, a := range n.Attrs {
			if !r.drops(a.Name) {
				str(a.Name)
				str(a.Value)
			}
		}
		if n.FirstChild != nil {
			n = n.FirstChild
			continue
		}
		// Close n and every ancestor whose last child it ends, up to the
		// next sibling on the way, or past doc.
		for {
			w.WriteByte(keyClose)
			if n == doc {
				n = nil
				break
			}
			if n.NextSibling != nil {
				n = n.NextSibling
				break
			}
			n = n.Parent
		}
	}
	srcs := make([]string, 0, len(images))
	for src := range images {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	num(len(srcs))
	for _, src := range srcs {
		str(src)
		data := images[src].Bytes()
		num(len(data))
		w.Write(data)
	}
	w.Flush()
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Host returns the page URL's host.
func (p *Page) Host() string {
	u, err := url.Parse(p.URL)
	if err != nil {
		return ""
	}
	return u.Host
}

func (p *Page) logEvent(typ string, target *dom.Node) {
	name := target.Tag
	if id := target.ID(); id != "" {
		name = name + "#" + id
	}
	if p.EventLog == nil {
		// Sized for a typical fill-and-submit page (per-keystroke keydowns
		// plus change/click/submit) so the log grows without reslicing;
		// staying nil until the first event keeps the JSON export null.
		p.EventLog = make([]Event, 0, 16)
	}
	p.EventLog = append(p.EventLog, Event{Type: typ, Target: name, Time: p.browser.now()})
}

// Type enters text into an input or select element, firing per-keystroke
// keydown events and any keylogger behaviours attached to inputs.
func (p *Page) Type(n *dom.Node, text string) {
	if n == nil {
		return
	}
	if n.Tag == "select" {
		// Selecting an option: set value, fire change.
		n.SetAttr("value", text)
		p.logEvent("change", n)
		p.MarkDirty()
		return
	}
	for range text {
		p.logEvent("keydown", n)
	}
	n.SetAttr("value", text)
	p.MarkDirty()
	// Keylogger behaviours fire once the field has content.
	for _, l := range p.Behavior.Listeners {
		if l.Event != "keydown" || (l.Target != "input" && l.Target != "document") {
			continue
		}
		endpoint := l.Endpoint
		if endpoint == "" {
			endpoint = "/k"
		}
		switch l.Action {
		case script.ActionSend:
			abs, err := joinURL(p.URL, endpoint)
			if err == nil {
				p.browser.fetch("POST", abs, url.Values{}, "beacon")
			}
		case script.ActionSendData:
			abs, err := joinURL(p.URL, endpoint)
			if err == nil {
				p.browser.fetch("POST", abs, url.Values{"d": {text}}, "beacon")
			}
		}
	}
}

// ErrNoNavigation reports an interaction that did not lead anywhere.
var ErrNoNavigation = errors.New("browser: interaction caused no navigation")

// Click activates an element: follows links, submits forms via submit
// buttons, applies content swaps. It returns the new page when navigation
// occurred, or (nil, ErrNoNavigation) when the click had no effect —
// both outcomes the crawler's progress detection must handle.
func (p *Page) Click(n *dom.Node) (*Page, error) {
	if n == nil {
		return nil, ErrNoNavigation
	}
	p.logEvent("click", n)
	// Behaviour swap bound to this element id?
	if id := n.ID(); id != "" {
		if swap, ok := p.Behavior.SwapFor(id); ok {
			return p.applySwap(swap)
		}
	}
	switch n.Tag {
	case "a":
		href := n.AttrOr("href", "")
		if href == "" || href == "#" {
			return nil, ErrNoNavigation
		}
		abs, err := joinURL(p.URL, href)
		if err != nil {
			return nil, err
		}
		return p.browser.Navigate(abs)
	case "button":
		t := strings.ToLower(n.AttrOr("type", "submit"))
		if t == "submit" {
			if form := n.Closest("form"); form != nil {
				return p.SubmitForm(form)
			}
		}
		if href := n.AttrOr("data-href", ""); href != "" {
			abs, err := joinURL(p.URL, href)
			if err != nil {
				return nil, err
			}
			return p.browser.Navigate(abs)
		}
		return nil, ErrNoNavigation
	case "input":
		t := strings.ToLower(n.AttrOr("type", ""))
		if t == "submit" || t == "image" {
			if form := n.Closest("form"); form != nil {
				return p.SubmitForm(form)
			}
		}
		return nil, ErrNoNavigation
	default:
		return nil, ErrNoNavigation
	}
}

// ClickAt clicks a screen coordinate: behaviour click zones take priority,
// then whatever rendered element occupies the point. This is the verb the
// crawler's visual submit-button detection drives (Section 4.3).
func (p *Page) ClickAt(x, y int) (*Page, error) {
	if zone, ok := p.Behavior.ZoneAt(x, y); ok {
		switch zone.Action {
		case "submit":
			form := p.Doc.ElementByID(zone.FormID)
			if form == nil {
				forms := p.Doc.ElementsByTag("form")
				if len(forms) > 0 {
					form = forms[0]
				}
			}
			if form != nil {
				return p.SubmitForm(form)
			}
			// Form-less pages (absolutely-positioned bare inputs, the
			// Figure 3 shape): serialize every input on the page.
			return p.SubmitBareInputs()
		case "nav":
			abs, err := joinURL(p.URL, zone.Href)
			if err != nil {
				return nil, err
			}
			return p.browser.Navigate(abs)
		}
	}
	// Hit-test the layout: prefer the smallest interactive element under
	// the point.
	lay := p.Render().Layout
	var best *dom.Node
	bestArea := 1 << 30
	p.Doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		box, ok := lay.Box(n)
		if !ok || !box.Contains(x, y) {
			return true
		}
		if !isInteractive(n) {
			return true
		}
		if a := box.Area(); a < bestArea {
			best, bestArea = n, a
		}
		return true
	})
	if best == nil {
		return nil, ErrNoNavigation
	}
	return p.Click(best)
}

func isInteractive(n *dom.Node) bool {
	switch n.Tag {
	case "a", "button":
		return true
	case "input":
		t := strings.ToLower(n.AttrOr("type", ""))
		return t == "submit" || t == "image" || t == "button"
	}
	return false
}

// PressEnter simulates the Enter key with focus on the given element,
// submitting its enclosing form if one exists.
func (p *Page) PressEnter(focus *dom.Node) (*Page, error) {
	if focus == nil {
		return nil, ErrNoNavigation
	}
	p.logEvent("keydown", focus)
	if form := focus.Closest("form"); form != nil {
		return p.SubmitForm(form)
	}
	return nil, ErrNoNavigation
}

// SubmitForm serializes the form's fields and POSTs them to the form action
// (or the page URL when the action is empty), the equivalent of invoking
// form.submit() from page JS.
func (p *Page) SubmitForm(form *dom.Node) (*Page, error) {
	if form == nil {
		return nil, ErrNoNavigation
	}
	p.logEvent("submit", form)
	values := url.Values{}
	i := 0
	form.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		if n.Tag == "input" || n.Tag == "select" || n.Tag == "textarea" {
			name := n.AttrOr("name", "")
			if name == "" {
				name = fmt.Sprintf("field%d", i)
			}
			i++
			values.Set(name, n.AttrOr("value", ""))
		}
		return true
	})
	action := form.AttrOr("action", "")
	target := p.URL
	if action != "" {
		abs, err := joinURL(p.URL, action)
		if err != nil {
			return nil, err
		}
		target = abs
	}
	body, finalURL, status, err := p.browser.fetch("POST", target, values, "document")
	if err != nil {
		return nil, err
	}
	return p.browser.buildPage(body, finalURL, status)
}

// SubmitBareInputs POSTs every input on a form-less page to the current
// URL, the transport-level effect of page JS that collects field values by
// hand. Used by click zones on pages that deliberately omit form elements.
func (p *Page) SubmitBareInputs() (*Page, error) {
	values := url.Values{}
	i := 0
	for _, n := range p.Doc.ElementsByTag("input", "select", "textarea") {
		name := n.AttrOr("name", "")
		if name == "" {
			name = fmt.Sprintf("field%d", i)
		}
		i++
		values.Set(name, n.AttrOr("value", ""))
	}
	if i == 0 {
		return nil, ErrNoNavigation
	}
	body, finalURL, status, err := p.browser.fetch("POST", p.URL, values, "document")
	if err != nil {
		return nil, err
	}
	return p.browser.buildPage(body, finalURL, status)
}

// VisibleInputs returns the page's visible input and select elements — the
// crawler's starting point (Section 4.1).
func (p *Page) VisibleInputs() []*dom.Node {
	lay := p.Render().Layout
	var out []*dom.Node
	for _, n := range p.Doc.ElementsByTag("input", "select") {
		t := strings.ToLower(n.AttrOr("type", ""))
		if t == "hidden" || t == "submit" || t == "image" || t == "button" || t == "checkbox" || t == "radio" {
			continue
		}
		if lay.Visible(n) {
			out = append(out, n)
		}
	}
	return out
}

func (p *Page) applySwap(swap script.Swap) (*Page, error) {
	body := dom.Body(p.Doc)
	body.RemoveChildren()
	frag := dom.Parse(swap.HTML)
	for _, c := range dom.Body(frag).Children() {
		body.AppendChild(c)
	}
	// Behaviour scripts inside the swapped content take effect.
	if b, err := script.Extract(p.Doc); err == nil {
		p.Behavior = b
		p.ListenerLog = append(p.ListenerLog, b.Listeners...)
	}
	p.MarkDirty()
	p.prefetchImages()
	return p, nil
}
