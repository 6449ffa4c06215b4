package sitegen

// The paper's published corpus statistics, used as generation rates. Each
// constant cites where in the paper the number comes from. Rates are
// expressed against the denominators the paper uses (all crawled sites, or
// multi-page sites only).
const (
	// PaperSeedURLs is the OpenPhish seed count (Table 1).
	PaperSeedURLs = 56027
	// PaperFilteredSites is the confirmed-phishing count after vendor
	// filtering (Table 1).
	PaperFilteredSites = 51859
	// PaperCampaigns is the number of perceptual-hash campaigns
	// (Section 4.6).
	PaperCampaigns = 8472
	// PaperMultiPageSites use a multi-page data-stealing pattern
	// (Section 5.2.1).
	PaperMultiPageSites = 23446
)

// Multi-page page-count weights (Figure 8): of the 23,446 multi-page sites,
// how many used 2, 3, 4, 5 total pages. The paper reports "over 12,000 ...
// included 3 stages" reading >= 3; these weights satisfy that.
var pageCountWeights = map[int]int{
	2: 9500,
	3: 10000,
	4: 2900,
	5: 1046,
}

// Click-through (Section 5.3.1): 2,933 of the multi-stage sites, of which
// 2,713 on the first page and 220 internal.
const (
	paperClickThroughFirst = 2713
	paperClickThroughInner = 220
)

// CAPTCHA deployment (Section 5.3.2): 2,608 sites total; 1,856 Google
// reCAPTCHA, 640 hCaptcha, 34 custom text-based, 78 custom visual.
const (
	paperRecaptchaSites    = 1856
	paperHcaptchaSites     = 640
	paperCustomTextCaptcha = 34
	paperCustomVisCaptcha  = 78
)

// Keylogging tiers (Section 5.1.3): 18,745 sites monitor keydown; 642 of
// those issue a request immediately after entry; 75 of those include the
// entered data.
const (
	paperKeyloggerListen = 18745
	paperKeyloggerSend   = 642
	paperKeyloggerExfil  = 75
)

// Double login (Section 5.2.2): 400 sites, all multi-page.
const paperDoubleLogin = 400

// UX termination (Section 5.2.3), all against multi-page sites: 7,258
// redirect to 680 distinct legitimate domains; 5,403 end on an input-less
// terminal page, of which 966 success messages, 125 custom errors, 1,599
// HTTP errors, 176 fake phishing-awareness messages (41 campaigns), and the
// rest uncategorized.
const (
	paperTermRedirect  = 7258
	paperTermFinalPage = 5403
	paperTermSuccess   = 966
	paperTermCustomErr = 125
	paperTermHTTPErr   = 1599
	paperTermAwareness = 176
)

// Two-factor requests (Section 5.3.3): 8,893 sites contain a Code field;
// 1,032 of them label it as an OTP/SMS code.
const (
	paperCodeFieldSites = 8893
	paperOTPSites       = 1032
)

// UI obfuscation (Section 5.1.2): OCR was needed for 27% of sites; in 12%
// no standard submit was found and visual detection was required.
const (
	paperOCRRate          = 0.27
	paperVisualSubmitRate = 0.12
)

// Average fraction of campaigns that do NOT clone their brand's visual
// design (Table 3), with per-brand rates for the five audited brands.
const paperNonCloneDefault = 0.42

var paperNonCloneByBrand = map[string]float64{
	"Chase Personal Banking": 0.30,
	"Microsoft OneDrive":     0.58,
	"Facebook, Inc.":         0.84,
	"DHL Airways, Inc.":      0.12,
	"Netflix":                0.26,
}

// Top-10 brand weights (Table 7 counts). Brands not listed share the
// remainder uniformly.
var paperBrandCounts = map[string]int{
	"Office365":              5351,
	"DHL Airways, Inc.":      3069,
	"Facebook, Inc.":         2335,
	"WhatsApp":               2257,
	"Tencent":                1701,
	"Crypto/Wallet":          1687,
	"Outlook":                1437,
	"La Banque Postale":      1131,
	"Chase Personal Banking": 1071,
	"M & T Bank Corporation": 1015,
}

// Params configures corpus generation. The zero value is not useful; use
// ScaledParams (ScaledParams(PaperFilteredSites, seed) is paper scale).
type Params struct {
	// NumSites is the number of confirmed phishing sites to generate (the
	// paper's 51,859 at full scale).
	NumSites int
	// Seed drives all randomness.
	Seed int64
	// MinCampaignSize clamps the sampled campaign (kit deployment) size
	// from below, producing the clone-heavy feeds the triage funnel is
	// built for (e.g. 12 on a 240-site corpus gives ~20 campaigns of ~12
	// identical deployments each). 0 keeps the paper's heavy-tailed
	// distribution untouched. The final campaign may still be smaller: it
	// absorbs whatever remainder NumSites leaves.
	MinCampaignSize int
	// CloakRate is the site-weighted fraction of campaigns whose kits
	// cloak: their servers gate the phishing flow behind request checks
	// (user-agent, referrer, language, geo header, repeat-visit cookie,
	// JS-capability probe) and serve a benign parked decoy otherwise — the
	// blind spot Section 6 calls out. 0 (the default) generates no cloaked
	// kits and leaves the corpus byte-identical to earlier versions.
	CloakRate float64
}

// ScaledParams returns a corpus scaled to n sites with all rates intact.
func ScaledParams(n int, seed int64) Params {
	return Params{NumSites: n, Seed: seed}
}

// rate returns count/PaperFilteredSites as a probability.
func rate(count int) float64 {
	return float64(count) / float64(PaperFilteredSites)
}

// rateOfMulti returns count/PaperMultiPageSites.
func rateOfMulti(count int) float64 {
	return float64(count) / float64(PaperMultiPageSites)
}
