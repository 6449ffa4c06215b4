// Package site defines the data model of a synthetic phishing website: an
// ordered multi-page flow with per-page HTML, image resources, submission
// rules, and the ground-truth record of which UX/UI design patterns the site
// embodies. Sites are produced by the generator (internal/sitegen), served
// over HTTP by internal/phishserver, crawled by internal/crawler, and the
// ground truth is what the analysis results are checked against.
package site

import (
	"repro/internal/brands"
	"repro/internal/captcha"
	"repro/internal/fieldspec"
)

// NextMode describes how a page hands off to the next one after a
// successful submission.
type NextMode string

// Next-page transition modes.
const (
	// NextRedirect responds 302 to the next page path: URL changes.
	NextRedirect NextMode = "redirect"
	// NextInline responds 200 with the next page's HTML at the same URL:
	// the JavaScript-swap case the DOM hash exists to detect.
	NextInline NextMode = "inline"
	// NextExternal responds 302 to an absolute external URL (the
	// redirect-to-legitimate-site termination pattern).
	NextExternal NextMode = "external"
	// NextNone re-serves the same page: the flow dead-ends.
	NextNone NextMode = ""
)

// Validator names for submitted field values.
const (
	ValidateAny    = "any"    // accept anything non-empty
	ValidateEmail  = "email"  // must look like an email
	ValidateLuhn   = "luhn"   // digits passing the Luhn checksum
	ValidateDigits = "digits" // digits only
	ValidatePhone  = "phone"  // at least 7 digits among the characters
	ValidateFlaky  = "flaky"  // accepts ~half of values (forces crawler retries)
)

// Page is one page of the flow.
type Page struct {
	// Path is the URL path this page is served at, e.g. "/", "/step2".
	Path string
	// HTML is the full page markup.
	HTML string
	// Next is the path (or absolute URL for NextExternal) served after a
	// successful POST to this page.
	Next string
	// Mode selects the transition mechanism.
	Mode NextMode
	// Validate maps form field names to validator names; missing fields
	// are accepted as-is.
	Validate map[string]string
	// DoubleLoginHTML, when non-empty, is served after the *first*
	// successful POST in place of the next page, pretending the login
	// failed (Section 5.2.2). The second POST proceeds normally.
	DoubleLoginHTML string
	// FailStatus, when nonzero, makes POSTs to this page return this HTTP
	// status with a bare error body: the HTTP-error termination pattern.
	FailStatus int
	// Fields records the ground-truth data types of the inputs on this
	// page, in document order.
	Fields []fieldspec.Type
	// FieldLabels carries the human label the page shows for each field
	// (parallel to Fields), used to build classifier corpora.
	FieldLabels []string
}

// Cloak rule kinds: the request dimensions a cloaking kit gates on.
const (
	CloakUserAgent = "user-agent" // User-Agent must contain Value
	CloakReferrer  = "referrer"   // Referer must contain Value
	CloakLanguage  = "language"   // Accept-Language must start with Value
	CloakGeo       = "geo"        // X-Forwarded-For must start with Value
	CloakCookie    = "cookie"     // repeat-visit cookie must be present
	CloakJS        = "js"         // JS-capability probe answer required
)

// CloakRule is one gate a cloaked site's server checks before serving the
// real flow. Value is the required header content for the header-based
// kinds and unused for CloakCookie/CloakJS.
type CloakRule struct {
	Kind  string
	Value string
}

// Cloak is a site's cloaking spec: every rule must pass or the server
// serves DecoyHTML — a deterministic parked/benign page — instead of the
// phishing flow.
type Cloak struct {
	Rules []CloakRule
	// DecoyHTML is the benign page served while any rule fails.
	DecoyHTML string
}

// Termination labels for ground truth and analysis.
const (
	TermNone          = "none"
	TermSuccess       = "success"
	TermCustomError   = "custom-error"
	TermHTTPError     = "http-error"
	TermAwareness     = "awareness"
	TermRedirectLegit = "redirect-legit"
)

// Truth is the ground-truth design-pattern record of one site.
type Truth struct {
	NumPages          int
	MultiPage         bool
	ClickThroughFirst bool
	ClickThroughInner bool
	HasCaptcha        bool
	CaptchaKind       captcha.Kind
	CaptchaProvider   captcha.Provider
	KeyloggerTier     int // 0..3, Section 5.1.3 tiers
	DoubleLogin       bool
	Termination       string
	RedirectDomain    string // eSLD for TermRedirectLegit
	TwoFactor         bool   // requests an OTP/SMS code
	OCRObfuscated     bool   // labels only in a background image
	NoStandardSubmit  bool   // submit reachable only via visual detection
	Clones            bool   // visually clones the brand's legit design
	// Language is the label language of the site's pages ("en", "fr", "es")
	// — the Section 6 multi-language extension.
	Language string
	// FieldsPerPage mirrors Page.Fields for every page, first page first.
	FieldsPerPage [][]fieldspec.Type
	// Cloaked marks sites whose server gates the flow behind cloak rules;
	// CloakKinds lists the rule kinds in check order.
	Cloaked    bool
	CloakKinds []string
}

// Site is one phishing website. The generator builds each campaign's kit
// once: every deployment of a campaign shares the same Pages (and the Page
// values they point to), Images and the slices inside Truth, and owns only
// its ID, Host and Cloak. After generation all of them are read-only; a
// write through one site would change every deployment of its campaign.
type Site struct {
	// ID is unique within a corpus, e.g. "site-000042".
	ID string
	// Host is the virtual hostname the site is served under.
	Host string
	// Brand is the impersonated brand's name.
	Brand string
	// Category is the OpenPhish industry sector.
	Category brands.Category
	// CampaignID groups sites deployed from the same kit/design.
	CampaignID string
	// Pages is the flow in order; Pages[0] is the landing page.
	Pages []*Page
	// Images maps resource paths (e.g. "/bg1.pxi") to encoded PXI bytes.
	Images map[string][]byte
	// Truth is the ground-truth design-pattern record.
	Truth Truth
	// Cloak, when non-nil, gates every request behind its rules.
	Cloak *Cloak
}

// SeedURL returns the URL the phishing feed would report for this site.
func (s *Site) SeedURL() string { return "http://" + s.Host + s.Pages[0].Path }

// PageAt returns the page served at path, or nil.
func (s *Site) PageAt(path string) *Page {
	for _, p := range s.Pages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// PageIndex returns the index of the page at path, or -1.
func (s *Site) PageIndex(path string) int {
	for i, p := range s.Pages {
		if p.Path == path {
			return i
		}
	}
	return -1
}
