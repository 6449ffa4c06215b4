// Package analysis implements the data-analyzer half of the system
// (Section 5): it consumes the crawl-session logs and produces every
// measurement the paper reports — UI patterns (brand cloning, input-field
// distribution, keylogging), multi-stage patterns (page-count histogram,
// per-stage field distribution, double login, UX termination), and
// user-verification patterns (click-through, CAPTCHAs, 2FA) — plus the
// corpus summaries of Tables 1, 2, and 7 and the campaign clustering of
// Section 4.6.
package analysis

import (
	"net/url"
	"sort"
	"strings"

	"repro/internal/captcha"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/feed"
	"repro/internal/fieldspec"
	"repro/internal/metrics"
	"repro/internal/phash"
	"repro/internal/script"
	"repro/internal/vision"
)

// multiLevelSuffixes lists the common two-label public suffixes, so
// "login.bank.co.uk" resolves to "bank.co.uk" rather than "co.uk". A full
// public-suffix list is overkill for the corpora this system measures; these
// cover the registries that actually appear in phishing feeds.
var multiLevelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "com.cn": true, "com.mx": true, "co.in": true,
	"co.za": true, "com.ar": true, "com.tr": true, "co.nz": true,
}

// ESLD returns the effective second-level domain of a host or URL — the
// registrable domain, the unit Table 1 and Table 4 count in.
func ESLD(rawURL string) string {
	host, ok := plainHost(rawURL)
	if !ok {
		host = rawURL
		if strings.Contains(rawURL, "://") {
			if u, err := url.Parse(rawURL); err == nil {
				host = u.Host
			}
		}
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	// The last two labels, or three under a two-label public suffix.
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	second := strings.LastIndexByte(host[:last], '.')
	if second < 0 || !multiLevelSuffixes[host[second+1:]] {
		return host[second+1:]
	}
	return host[strings.LastIndexByte(host[:second], '.')+1:]
}

// plainHost returns the host of an http or https URL whose host holds only
// lowercase letters, digits, dots and hyphens and whose remainder holds no
// escape or control byte: a URL url.Parse accepts with exactly that host.
// For any other URL ok is false. Reading the host off the string spares the
// report pass one parse per logged page.
func plainHost(rawURL string) (host string, ok bool) {
	rest, found := strings.CutPrefix(rawURL, "http://")
	if !found {
		if rest, found = strings.CutPrefix(rawURL, "https://"); !found {
			return "", false
		}
	}
	end := len(rest)
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == '/' || c == '?' || c == '#' {
			end = i
			break
		}
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return "", false
		}
	}
	for i := end; i < len(rest); i++ {
		if c := rest[i]; c == '%' || c < 0x20 || c == 0x7f {
			return "", false
		}
	}
	return rest[:end], true
}

// MetaIndex builds the seed-URL → feed-entry join index once, so a
// streaming consumer (the journal sink journaling each session as it
// completes) can attach metadata per log without rebuilding the map.
func MetaIndex(entries []feed.Entry) map[string]feed.Entry {
	byURL := make(map[string]feed.Entry, len(entries))
	for _, e := range entries {
		byURL[e.URL] = e
	}
	return byURL
}

// AttachMetaIndexed attaches one log's feed metadata from a prebuilt
// MetaIndex.
func AttachMetaIndexed(l *crawler.SessionLog, byURL map[string]feed.Entry) {
	if e, ok := byURL[l.SeedURL]; ok && e.Site != nil {
		l.SiteID = e.Site.ID
		l.Brand = e.Brand
		l.Category = e.Sector
		l.CampaignID = e.Site.CampaignID
	}
}

// Summary reproduces Table 1: seed URLs, filtered URLs, crawled URLs, and
// crawled SLDs.
type Summary struct {
	SeedURLs     int
	FilteredURLs int
	CrawledURLs  int
	CrawledSLDs  int
}

// Summarize computes the Table 1 row.
func Summarize(f *feed.Feed, logs []*crawler.SessionLog) Summary {
	urls := map[string]bool{}
	slds := map[string]bool{}
	for _, l := range logs {
		for _, p := range l.Pages {
			urls[p.URL] = true
			slds[ESLD(p.URL)] = true
		}
	}
	return Summary{
		SeedURLs:     f.SeedCount(),
		FilteredURLs: len(f.Filter()),
		CrawledURLs:  len(urls),
		CrawledSLDs:  len(slds),
	}
}

// CategoryCounts reproduces Table 2: sites per business category.
func CategoryCounts(logs []*crawler.SessionLog) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, l := range logs {
		if l.Category != "" {
			h.Add(l.Category, 1)
		}
	}
	return h
}

// BrandCounts reproduces Table 7: sites per targeted brand.
func BrandCounts(logs []*crawler.SessionLog) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, l := range logs {
		if l.Brand != "" {
			h.Add(l.Brand, 1)
		}
	}
	return h
}

// CampaignClusterThreshold is the pHash distance below which two first
// pages are considered the same campaign design. Calibrated against the
// corpus: identical kit deployments hash identically (distance 0) while
// distinct campaigns sit at distance >= 10 even when they share a brand.
const CampaignClusterThreshold = 8

// ClusterCampaigns groups sessions into campaigns by first-page perceptual
// hash (Section 4.6) and returns the number of clusters.
func ClusterCampaigns(logs []*crawler.SessionLog) int {
	hashes := make([]phash.Hash, 0, len(logs))
	for _, l := range logs {
		hashes = append(hashes, l.FirstPageEmbedding.PHash)
	}
	assign := phash.Cluster(hashes, CampaignClusterThreshold)
	max := -1
	for _, a := range assign {
		if a > max {
			max = a
		}
	}
	return max + 1
}

// sitePages returns the session's pages on the phishing site itself,
// excluding pages reached after leaving for another eSLD (terminal
// redirects). The result may be l.Pages itself and must not be modified.
func sitePages(l *crawler.SessionLog) []crawler.PageLog {
	if len(l.Pages) == 0 {
		return nil
	}
	seed := ESLD(l.SeedURL)
	for i, p := range l.Pages {
		if ESLD(p.URL) != seed {
			out := append([]crawler.PageLog(nil), l.Pages[:i]...)
			for _, q := range l.Pages[i+1:] {
				if ESLD(q.URL) == seed {
					out = append(out, q)
				}
			}
			return out
		}
	}
	// Most sessions never leave the site: their pages are all on it.
	return l.Pages
}

// IsMultiPage reports whether the crawler progressed past the first page on
// the phishing site.
func IsMultiPage(l *crawler.SessionLog) bool {
	return len(sitePages(l)) >= 2
}

// FieldDistribution reproduces Figure 7: for each field type, the number of
// pages requesting it, plus context-group totals.
type FieldDistribution struct {
	PerType  *metrics.Histogram
	PerGroup *metrics.Histogram
}

// FieldsAcrossPages computes the Figure 7 distribution.
func FieldsAcrossPages(logs []*crawler.SessionLog) FieldDistribution {
	d := FieldDistribution{PerType: metrics.NewHistogram(), PerGroup: metrics.NewHistogram()}
	for _, l := range logs {
		for _, p := range l.Pages {
			seen := map[fieldspec.Type]bool{}
			for _, f := range p.Fields {
				if f.Label == fieldspec.Unknown || seen[f.Label] {
					continue
				}
				seen[f.Label] = true
				d.PerType.Add(string(f.Label), 1)
				d.PerGroup.Add(string(fieldspec.GroupOf(f.Label)), 1)
			}
		}
	}
	return d
}

// PageCountHistogram reproduces Figure 8: the distribution of total on-site
// page counts for multi-page sites.
func PageCountHistogram(logs []*crawler.SessionLog) map[int]int {
	h := map[int]int{}
	for _, l := range logs {
		n := len(sitePages(l))
		if n >= 2 {
			h[n]++
		}
	}
	return h
}

// StageField is one cell of Figure 9: the share of multi-page sites whose
// page at the given stage requested the given field type.
type StageField struct {
	Stage int // 1-based page index
	Type  fieldspec.Type
	Pct   float64
}

// FieldsPerStage reproduces Figure 9: per stage (1..5), the percentage of
// multi-step sites requesting each field type at that stage. Percentages
// are per field type across stages, as in the paper's caption.
func FieldsPerStage(logs []*crawler.SessionLog) []StageField {
	// counts[stage][type]
	counts := map[int]map[fieldspec.Type]int{}
	typeTotals := map[fieldspec.Type]int{}
	for _, l := range logs {
		pages := sitePages(l)
		if len(pages) < 2 {
			continue
		}
		for i, p := range pages {
			stage := i + 1
			if stage > 5 {
				break
			}
			seen := map[fieldspec.Type]bool{}
			for _, f := range p.Fields {
				if f.Label == fieldspec.Unknown || seen[f.Label] {
					continue
				}
				seen[f.Label] = true
				if counts[stage] == nil {
					counts[stage] = map[fieldspec.Type]int{}
				}
				counts[stage][f.Label]++
				typeTotals[f.Label]++
			}
		}
	}
	var out []StageField
	for stage := 1; stage <= 5; stage++ {
		// Emit types in sorted order: Figure 9 renders straight from this
		// slice, so its row order must not depend on map iteration.
		typs := make([]fieldspec.Type, 0, len(counts[stage]))
		for t := range counts[stage] {
			typs = append(typs, t)
		}
		sort.Slice(typs, func(i, j int) bool { return typs[i] < typs[j] })
		for _, t := range typs {
			out = append(out, StageField{
				Stage: stage,
				Type:  t,
				Pct:   100 * float64(counts[stage][t]) / float64(typeTotals[t]),
			})
		}
	}
	return out
}

// ObfuscationRates reproduces the Section 5.1.2 auxiliary numbers: the
// fraction of sites where OCR was needed and where only visual detection
// found a submit control.
type ObfuscationRates struct {
	OCRRate          float64
	VisualSubmitRate float64
}

// Obfuscation computes the OCR and visual-submit rates.
func Obfuscation(logs []*crawler.SessionLog) ObfuscationRates {
	if len(logs) == 0 {
		return ObfuscationRates{}
	}
	ocrN, visN := 0, 0
	for _, l := range logs {
		sawOCR, sawVisual := false, false
		for _, p := range l.Pages {
			if p.UsedOCR {
				sawOCR = true
			}
			if p.SubmitMethod == crawler.SubmitVisual || p.SubmitMethod == crawler.SubmitVisualClick {
				sawVisual = true
			}
		}
		if sawOCR {
			ocrN++
		}
		if sawVisual {
			visN++
		}
	}
	n := float64(len(logs))
	return ObfuscationRates{OCRRate: float64(ocrN) / n, VisualSubmitRate: float64(visN) / n}
}

// KeyloggingCounts reproduces Section 5.1.3's three nested measurements.
type KeyloggingCounts struct {
	// Monitoring sites register a keydown listener that stores data.
	Monitoring int
	// ImmediateRequest sites issue a network request as data is entered.
	ImmediateRequest int
	// DataExfiltrated sites include the entered data in that request
	// before any submit action.
	DataExfiltrated int
}

// Keylogging computes the keylogger tiers from listener logs and network
// traffic.
func Keylogging(logs []*crawler.SessionLog) KeyloggingCounts {
	var out KeyloggingCounts
	for _, l := range logs {
		monitors, sends, exfil := false, false, false
		// Typed values across the session, for matching beacon payloads.
		typed := map[string]bool{}
		for _, p := range l.Pages {
			for _, f := range p.Fields {
				if f.Value != "" {
					typed[f.Value] = true
				}
			}
			for _, lst := range p.Listeners {
				if lst.Event == "keydown" {
					monitors = true
				}
			}
		}
		for _, r := range l.NetLog {
			if r.Kind != "beacon" {
				continue
			}
			sends = true
			for _, d := range r.CarriedData {
				if typed[d] {
					exfil = true
				}
			}
		}
		if monitors {
			out.Monitoring++
		}
		if monitors && sends {
			out.ImmediateRequest++
		}
		if monitors && sends && exfil {
			out.DataExfiltrated++
		}
	}
	return out
}

// DoubleLoginCount reproduces Section 5.2.2: multi-page sites presenting
// two consecutive pages that request the same login credentials.
func DoubleLoginCount(logs []*crawler.SessionLog) int {
	login := fieldspec.LoginTypes()
	n := 0
	for _, l := range logs {
		pages := sitePages(l)
		if len(pages) < 2 {
			continue
		}
		for i := 1; i < len(pages); i++ {
			a := loginSet(pages[i-1], login)
			b := loginSet(pages[i], login)
			if len(a) >= 2 && setsEqual(a, b) {
				n++
				break
			}
		}
	}
	return n
}

func loginSet(p crawler.PageLog, login map[fieldspec.Type]bool) map[fieldspec.Type]bool {
	out := map[fieldspec.Type]bool{}
	for _, f := range p.Fields {
		if login[f.Label] {
			out[f.Label] = true
		}
	}
	return out
}

func setsEqual(a, b map[fieldspec.Type]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TerminationClassifier labels terminal-page text; satisfied by
// termclass.Classifier.
type TerminationClassifier interface {
	Classify(pageText string) (string, float64)
}

// TerminationCounts reproduces Section 5.2.3.
type TerminationCounts struct {
	// RedirectSites left the phishing site for a legitimate domain.
	RedirectSites int
	// RedirectDomains is the Table 4 histogram of landing eSLDs.
	RedirectDomains *metrics.Histogram
	// FinalNoInputSites ended on a terminal page with no input fields.
	FinalNoInputSites int
	// ByCategory counts terminal pages per classified category.
	ByCategory *metrics.Histogram
	// AwarenessCampaigns is the number of distinct campaigns among
	// awareness terminations.
	AwarenessCampaigns int
}

// Termination computes the UX-termination measurements over multi-page
// sites.
func Termination(logs []*crawler.SessionLog, clf TerminationClassifier) TerminationCounts {
	out := TerminationCounts{
		RedirectDomains: metrics.NewHistogram(),
		ByCategory:      metrics.NewHistogram(),
	}
	awarenessCamps := map[string]bool{}
	for _, l := range logs {
		if !IsMultiPage(l) || len(l.Pages) == 0 {
			continue
		}
		seed := ESLD(l.SeedURL)
		last := l.Pages[len(l.Pages)-1]
		if ESLD(last.URL) != seed {
			// Left the phishing site: terminal-redirect pattern.
			out.RedirectSites++
			out.RedirectDomains.Add(ESLD(last.URL), 1)
			continue
		}
		// Same-domain terminal page with no inputs.
		onSite := sitePages(l)
		final := onSite[len(onSite)-1]
		if final.HasInputs() {
			continue
		}
		out.FinalNoInputSites++
		if final.Status >= 400 {
			out.ByCategory.Add("http-error", 1)
			continue
		}
		if clf == nil {
			continue
		}
		label, _ := clf.Classify(final.Text)
		out.ByCategory.Add(label, 1)
		if label == "awareness" {
			awarenessCamps[l.CampaignID] = true
		}
	}
	out.AwarenessCampaigns = len(awarenessCamps)
	return out
}

// ClickThroughCounts reproduces Section 5.3.1.
type ClickThroughCounts struct {
	Total     int // multi-stage sites with a click-through pattern
	FirstPage int
	Internal  int
}

// ClickThrough finds no-input pages followed by input pages among
// multi-stage sites. CAPTCHA verification pages also fit that structural
// description but are measured separately (Section 5.3.2), so pages that
// carry a known CAPTCHA library or a detected CAPTCHA challenge are
// excluded here, as the paper's disjoint counts imply.
func ClickThrough(logs []*crawler.SessionLog) ClickThroughCounts {
	var out ClickThroughCounts
	for _, l := range logs {
		pages := sitePages(l)
		if len(pages) < 2 {
			continue
		}
		first, internal := false, false
		for i := 0; i+1 < len(pages); i++ {
			if !pages[i].HasInputs() && pages[i+1].HasInputs() && !isCaptchaPage(pages[i]) {
				if i == 0 {
					first = true
				} else {
					internal = true
				}
			}
		}
		if first || internal {
			out.Total++
		}
		if first {
			out.FirstPage++
		}
		if internal {
			out.Internal++
		}
	}
	return out
}

// isCaptchaPage reports whether a page carries CAPTCHA signals: a known
// provider script or a detected challenge.
func isCaptchaPage(p crawler.PageLog) bool {
	for _, src := range p.ScriptSrcs {
		if captcha.DetectProvider(src) != captcha.ProviderNone {
			return true
		}
	}
	for _, det := range p.Detections {
		if _, ok := kindFromClass(det.Class); ok {
			return true
		}
	}
	return false
}

// CaptchaCounts reproduces Section 5.3.2's prevalence measurements.
type CaptchaCounts struct {
	Total        int
	KnownTotal   int
	Recaptcha    int
	Hcaptcha     int
	CustomText   int
	CustomVisual int
}

// CaptchaOptions configures the custom-CAPTCHA verification heuristics.
type CaptchaOptions struct {
	// Exemplars are pHashes of training CAPTCHA crops per visual kind for
	// the >= 3 nearby exemplars rule.
	Exemplars []phash.Hash
	// InputNearDist is the pixel distance within which a text CAPTCHA must
	// have an input field. Default 120.
	InputNearDist int
	// VisualThreshold is the pHash distance for the exemplar rule.
	// Calibrated on this substrate: true challenge crops sit within ~35 of
	// several exemplars while false positives match none even at 40.
	// Default 35.
	VisualThreshold int
}

// Captchas measures known-library and custom CAPTCHA prevalence.
func Captchas(logs []*crawler.SessionLog, opts CaptchaOptions) CaptchaCounts {
	if opts.InputNearDist <= 0 {
		opts.InputNearDist = 120
	}
	if opts.VisualThreshold <= 0 {
		opts.VisualThreshold = 35
	}
	var out CaptchaCounts
	for _, l := range logs {
		var known captcha.Provider
		customText, customVis := false, false
		for _, p := range l.Pages {
			for _, src := range p.ScriptSrcs {
				if prov := captcha.DetectProvider(src); prov != captcha.ProviderNone {
					known = prov
				}
			}
			for di, det := range p.Detections {
				kind, ok := kindFromClass(det.Class)
				if !ok {
					continue
				}
				if kind.IsText() {
					// Heuristic 1: a text CAPTCHA needs an input box nearby
					// that the crawler did not map to a meaningful type.
					if textCaptchaVerified(p, det, opts.InputNearDist) {
						customText = true
					}
				} else {
					// Heuristic 2: visual CAPTCHAs must resemble >= 3
					// training exemplars by pHash.
					if di < len(p.DetectionHashes) &&
						phash.NearCount(p.DetectionHashes[di], opts.Exemplars, opts.VisualThreshold) >= 3 {
						customVis = true
					}
				}
			}
		}
		if known == captcha.ProviderNone && !customText && !customVis {
			continue
		}
		out.Total++
		switch known {
		case captcha.ProviderRecaptcha:
			out.KnownTotal++
			out.Recaptcha++
		case captcha.ProviderHcaptcha:
			out.KnownTotal++
			out.Hcaptcha++
		default:
			if customText {
				out.CustomText++
			}
			if customVis {
				out.CustomVisual++
			}
		}
	}
	return out
}

func kindFromClass(class string) (captcha.Kind, bool) {
	for _, k := range captcha.AllKinds() {
		if k.String() == class {
			return k, true
		}
	}
	return 0, false
}

func textCaptchaVerified(p crawler.PageLog, det vision.Detection, dist int) bool {
	for _, f := range p.Fields {
		if f.Label != fieldspec.Unknown && f.Label != fieldspec.Code {
			continue
		}
		// The answer box sits beside or on the row(s) just below the
		// challenge; its horizontal offset is label-driven and carries no
		// signal, so proximity is judged vertically.
		vertGap := 0
		switch {
		case f.Box.Y > det.Box.Y+det.Box.H:
			vertGap = f.Box.Y - (det.Box.Y + det.Box.H)
		case det.Box.Y > f.Box.Y+f.Box.H:
			vertGap = det.Box.Y - (f.Box.Y + f.Box.H)
		}
		if vertGap < dist {
			return true
		}
	}
	return false
}

// TwoFactorCounts reproduces Section 5.3.3.
type TwoFactorCounts struct {
	// CodeFieldSites contain at least one field classified as Code.
	CodeFieldSites int
	// OTPSites additionally label the field with 2FA keywords.
	OTPSites int
}

// TwoFactor measures code and OTP/SMS field prevalence.
func TwoFactor(logs []*crawler.SessionLog) TwoFactorCounts {
	var out TwoFactorCounts
	for _, l := range logs {
		hasCode, hasOTP := false, false
		for _, p := range l.Pages {
			for _, f := range p.Fields {
				if f.Label != fieldspec.Code {
					continue
				}
				hasCode = true
				if fieldspec.IsTwoFactorLabel(f.Description) {
					hasOTP = true
				}
			}
		}
		if hasCode {
			out.CodeFieldSites++
		}
		if hasOTP {
			out.OTPSites++
		}
	}
	return out
}

// SubmitMethodBreakdown counts, per site, the first submit strategy that
// worked (Section 4.3's ladder): how often the Enter key sufficed, how often
// a DOM button or programmatic form submission was needed, and how often
// only visual detection found the control. The paper reports the last
// number as its 12% statistic.
func SubmitMethodBreakdown(logs []*crawler.SessionLog) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, l := range logs {
		method := ""
		for _, p := range l.Pages {
			if p.HasInputs() && p.SubmitMethod != "" {
				method = p.SubmitMethod
				break
			}
		}
		if method != "" {
			h.Add(method, 1)
		}
	}
	return h
}

// FailureTaxonomy tallies the operational fate of every session: healthy
// outcomes (completed, stuck, page-limit) under their own names, takedown
// pages, and gave-up sessions broken down by their preserved failure class
// ("gave-up:dead", "gave-up:timeout", ...). Benign endings split by what
// the uncloaking loop learned: "benign:cloaked" is a cloaking gate the
// retry budget never opened (a measurable miss), plain "benign" a parked
// page that implicated no request dimension. Every session — including nil
// (lost) ones — lands in exactly one row, so the histogram total equals
// the crawled site count; it is the table a real crawl's reachability
// triage starts from.
func FailureTaxonomy(logs []*crawler.SessionLog) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, l := range logs {
		switch {
		case l == nil:
			h.Add(farm.OutcomeLost, 1)
		case l.Outcome == farm.OutcomeGaveUp && l.Error != "":
			h.Add(farm.OutcomeGaveUp+":"+l.Error, 1)
		case l.Outcome == crawler.OutcomeBenign && l.Cloak != nil:
			h.Add(crawler.OutcomeBenign+":cloaked", 1)
		default:
			h.Add(l.Outcome, 1)
		}
	}
	return h
}

// keydownListenerCount is exposed for white-box tests.
func keydownListenerCount(listeners []script.Listener) int {
	n := 0
	for _, l := range listeners {
		if l.Event == "keydown" {
			n++
		}
	}
	return n
}
