// Package sitegen generates the synthetic phishing corpus: campaigns of
// sites whose UX/UI design-pattern mix is parameterised by the rates the
// paper reports (params.go cites each number). A campaign models one
// phishing kit: every site in it shares brand, visual design, flow
// structure, and behaviours, deployed under different hostnames — which is
// exactly the property the paper's perceptual-hash clustering exploits to
// find campaigns in the first place.
//
// Because campaign sizes are heavy-tailed (a few kits deploy hundreds of
// sites), assigning design patterns to campaigns i.i.d. would give the
// site-level rates enormous variance. Pattern flags are therefore assigned
// by size-weighted quota: each campaign receives a flag when the running
// site-weighted rate is below the paper's target, which keeps corpus rates
// within a fraction of a percent of the paper at any scale while preserving
// kit coherence.
package sitegen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/brands"
	"repro/internal/captcha"
	"repro/internal/fieldspec"
	"repro/internal/site"
)

// Corpus is a generated set of phishing sites.
type Corpus struct {
	Sites []*site.Site
	// Campaigns is the number of distinct campaigns generated.
	Campaigns int
	// Seed echoes the generation seed.
	Seed int64
}

// quota assigns a boolean flag to size-weighted draws such that the running
// assigned fraction tracks the target. A small randomized prior decorrelates
// the first draws of independent quotas.
type quota struct {
	target   float64
	got, tot float64
}

func newQuota(target float64, rng *rand.Rand) *quota {
	const prior = 40
	return &quota{target: target, got: target * prior * rng.Float64() * 2, tot: prior}
}

// draw decides the flag for a campaign of n sites, choosing whichever
// outcome leaves the running rate closest to the target. This matters for
// large campaigns: a 400-site kit must not absorb a 1%-rate flag just
// because the quota is one site short.
func (q *quota) draw(n int) bool {
	s := float64(n)
	q.tot += s
	withErr := abs(q.got + s - q.target*q.tot)
	withoutErr := abs(q.got - q.target*q.tot)
	if withErr <= withoutErr {
		q.got += s
		return true
	}
	return false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// multiQuota picks one of several options tracking target proportions.
type multiQuota struct {
	targets []float64
	got     []float64
	tot     float64
}

func newMultiQuota(targets []float64, rng *rand.Rand) *multiQuota {
	const prior = 40
	m := &multiQuota{targets: targets, got: make([]float64, len(targets)), tot: prior}
	for i := range m.got {
		m.got[i] = targets[i] * prior * rng.Float64() * 2
	}
	return m
}

// draw returns the option whose assignment most improves tracking. The raw
// marginal error change is normalized by the option's expected magnitude so
// rare options (e.g. the 0.15%-rate custom visual CAPTCHA) are not starved
// by the natural fluctuation of popular options: a rare option wins as soon
// as a campaign small enough to fit its deficit comes along, while large
// campaigns still land on popular options.
func (m *multiQuota) draw(n int) int {
	s := float64(n)
	m.tot += s
	best, bestScore := 0, 1e18
	for i := range m.targets {
		t := m.targets[i] * m.tot
		errChange := abs(m.got[i]+s-t) - abs(m.got[i]-t)
		score := errChange / math.Sqrt(t+s)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	m.got[best] += s
	return best
}

// genState holds every quota used during generation.
type genState struct {
	rng *rand.Rand

	multi       *quota
	pageCount   *multiQuota // options: 2, 3, 4, 5 (among multi)
	ctFirst     *quota      // among multi
	ctInner     *quota      // among multi
	doubleLogin *quota      // among multi
	termination *multiQuota // among multi
	captchaType *multiQuota // among multi: none/recaptcha/hcaptcha/text/visual
	keylog1     *quota
	keylog2     *quota      // among keylog1
	keylog3     *quota      // among keylog2
	obfuscation *multiQuota // normal / ocr / formless
	hasCode     *quota
	otpStyle    *quota // among hasCode
	cloneBrand  map[string]*quota
	sharedSLD   *quota
	noButton    *quota // among normal-obfuscation campaigns
	consent     *quota // "I agree" checkbox on the first data page
	brandPick   *multiQuota
	brandList   []brands.Brand
	language    *multiQuota // en / fr / es (Section 6 extension)

	// Cloaking quotas, nil unless Params.CloakRate > 0: the nil state
	// draws nothing from the rng, so corpora without cloaking stay
	// byte-identical to earlier generator versions.
	cloak      *quota
	cloakDepth *multiQuota // 1 / 2 / 3 rules per cloaked campaign
	cloakKind  *multiQuota // first rule kind, cloakKinds order
}

func newGenState(p Params) *genState {
	seed := p.Seed
	rng := rand.New(rand.NewSource(seed))
	pMulti := rate(PaperMultiPageSites)
	pcTotal := 0
	for _, w := range pageCountWeights {
		pcTotal += w
	}
	// CAPTCHA targets are expressed per eligible campaign (multi-page
	// without a click-through first page), so the overall rate lands on
	// the paper's per-site numbers.
	captchaEligible := 1 - rateOfMulti(paperClickThroughFirst)
	captchaNone := 1 - (rate(paperRecaptchaSites)+rate(paperHcaptchaSites)+
		rate(paperCustomTextCaptcha)+rate(paperCustomVisCaptcha))/pMulti/captchaEligible
	g := &genState{
		rng:   rng,
		multi: newQuota(pMulti, rng),
		pageCount: newMultiQuota([]float64{
			float64(pageCountWeights[2]) / float64(pcTotal),
			float64(pageCountWeights[3]) / float64(pcTotal),
			float64(pageCountWeights[4]) / float64(pcTotal),
			float64(pageCountWeights[5]) / float64(pcTotal),
		}, rng),
		ctFirst:     newQuota(rateOfMulti(paperClickThroughFirst), rng),
		ctInner:     newQuota(rateOfMulti(paperClickThroughInner), rng),
		doubleLogin: newQuota(rateOfMulti(paperDoubleLogin), rng),
		termination: newMultiQuota([]float64{
			rateOfMulti(paperTermRedirect),
			rateOfMulti(paperTermSuccess),
			rateOfMulti(paperTermCustomErr),
			rateOfMulti(paperTermHTTPErr),
			rateOfMulti(paperTermAwareness),
			rateOfMulti(paperTermFinalPage - paperTermSuccess - paperTermCustomErr - paperTermHTTPErr - paperTermAwareness),
			1 - rateOfMulti(paperTermRedirect) - rateOfMulti(paperTermFinalPage),
		}, rng),
		captchaType: newMultiQuota([]float64{
			captchaNone,
			rate(paperRecaptchaSites) / pMulti / captchaEligible,
			rate(paperHcaptchaSites) / pMulti / captchaEligible,
			rate(paperCustomTextCaptcha) / pMulti / captchaEligible,
			rate(paperCustomVisCaptcha) / pMulti / captchaEligible,
		}, rng),
		keylog1: newQuota(rate(paperKeyloggerListen), rng),
		keylog2: newQuota(float64(paperKeyloggerSend)/float64(paperKeyloggerListen), rng),
		keylog3: newQuota(float64(paperKeyloggerExfil)/float64(paperKeyloggerSend), rng),
		obfuscation: newMultiQuota([]float64{
			1 - paperOCRRate - paperVisualSubmitRate,
			paperOCRRate,
			paperVisualSubmitRate,
		}, rng),
		hasCode:    newQuota(rate(paperCodeFieldSites), rng),
		otpStyle:   newQuota(float64(paperOTPSites)/float64(paperCodeFieldSites), rng),
		cloneBrand: map[string]*quota{},
		sharedSLD:  newQuota(0.3, rng),
		noButton:   newQuota(0.08, rng),
		consent:    newQuota(0.15, rng),
		brandPick:  newBrandQuota(rng),
		brandList:  brands.All(),
		language:   newMultiQuota([]float64{0.85, 0.10, 0.05}, rng),
	}
	// Cloak quotas are created after every always-on quota, so enabling
	// cloaking appends to the rng stream instead of shifting it.
	if p.CloakRate > 0 {
		g.cloak = newQuota(p.CloakRate, rng)
		g.cloakDepth = newMultiQuota([]float64{0.60, 0.30, 0.10}, rng)
		g.cloakKind = newMultiQuota([]float64{0.30, 0.20, 0.15, 0.10, 0.15, 0.10}, rng)
	}
	return g
}

// newBrandQuota builds the Table 7-weighted brand selector.
func newBrandQuota(rng *rand.Rand) *multiQuota {
	all := brands.All()
	topTotal := 0
	for _, c := range paperBrandCounts {
		topTotal += c
	}
	restEach := (PaperFilteredSites - topTotal) / (len(all) - len(paperBrandCounts))
	targets := make([]float64, len(all))
	for i, b := range all {
		w, ok := paperBrandCounts[b.Name]
		if !ok {
			w = restEach
		}
		targets[i] = float64(w) / float64(PaperFilteredSites)
	}
	return newMultiQuota(targets, rng)
}

func (g *genState) cloneFor(brand string, n int) bool {
	q, ok := g.cloneBrand[brand]
	if !ok {
		nonClone := paperNonCloneDefault
		if r, found := paperNonCloneByBrand[brand]; found {
			nonClone = r
		}
		q = newQuota(1-nonClone, g.rng)
		g.cloneBrand[brand] = q
	}
	return q.draw(n)
}

// campaignSpec is the kit: everything shared by a campaign's sites.
type campaignSpec struct {
	id     string
	design design
	// Flow structure.
	pageCount   int
	multi       bool
	ctFirst     bool
	ctInner     bool
	captchaProv captcha.Provider
	captchaKind captcha.Kind
	hasCaptcha  bool
	termination string
	redirectTo  string
	doubleLogin bool
	hasCode     bool
	otpStyle    bool
	ocr         bool
	formless    bool
	consent     bool
	dataFields  [][]fieldspec.Type
	size        int
	sharedSLD   bool
	// cloakRules, when non-empty, gate every site in the campaign.
	cloakRules []site.CloakRule
	// pageSeed drives page construction so every site in the campaign gets
	// the identical kit pages (as real deployments do), which is what makes
	// perceptual-hash campaign clustering recover campaigns.
	pageSeed int64
}

// Generate builds a corpus of p.NumSites sites. Each campaign's kit is
// built once and shared by all of its deployments (see site.Site), and
// equal image streams are kept once across kits.
func Generate(p Params) *Corpus {
	specs := planCampaigns(p)
	corpus := &Corpus{Campaigns: len(specs), Seed: p.Seed, Sites: make([]*site.Site, 0, p.NumSites)}
	// Kits often draw the same image (a brand's logo, a CAPTCHA): the
	// corpus keeps one stream of each.
	streams := map[string][]byte{}
	for ci, spec := range specs {
		k := buildKit(spec, ci)
		for path, b := range k.images {
			if kept, ok := streams[string(b)]; ok {
				k.images[path] = kept
			} else {
				streams[string(b)] = b
			}
		}
		for si := 0; si < spec.size; si++ {
			corpus.Sites = append(corpus.Sites, k.deploy(si, len(corpus.Sites)))
		}
	}
	return corpus
}

// planCampaigns draws the campaign specs of a p.NumSites-site corpus, in
// deployment order.
func planCampaigns(p Params) []*campaignSpec {
	g := newGenState(p)
	var specs []*campaignSpec
	total := 0
	// Cap campaign size relative to corpus scale so one giant kit cannot
	// dominate a small corpus's statistics; at paper scale the cap is far
	// above the distribution's maximum.
	maxSize := p.NumSites/25 + 3
	// A clone-heavy corpus (MinCampaignSize > 0) lifts the floor — and the
	// cap, when the floor exceeds it — while drawing from the same size
	// distribution, so the campaign mix stays seeded identically.
	if p.MinCampaignSize > maxSize {
		maxSize = p.MinCampaignSize
	}
	for i := 0; total < p.NumSites; i++ {
		size := campaignSize(g.rng)
		if size < p.MinCampaignSize {
			size = p.MinCampaignSize
		}
		if size > maxSize {
			size = maxSize
		}
		if total+size > p.NumSites {
			size = p.NumSites - total
		}
		specs = append(specs, drawCampaign(g, i, size))
		total += size
	}
	return specs
}

// campaignSize samples the skewed kit-deployment size distribution
// (Section 4.6: most campaigns < 50 sites, a few > 500).
func campaignSize(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < 0.70:
		return 1 + rng.Intn(3)
	case u < 0.95:
		return 4 + rng.Intn(17)
	case u < 0.995:
		return 21 + rng.Intn(60)
	default:
		return 100 + rng.Intn(500)
	}
}

func drawCampaign(g *genState, idx, size int) *campaignSpec {
	rng := g.rng
	b := g.brandList[g.brandPick.draw(size)]
	spec := &campaignSpec{
		id:   fmt.Sprintf("camp-%05d", idx),
		size: size,
	}
	spec.design = design{
		brand:        b,
		buttonTxt:    buttonTexts[rng.Intn(len(buttonTexts))],
		headline:     headlines[rng.Intn(len(headlines))],
		awarenessOrg: fmt.Sprintf("%s Training Dept %d", strings.Fields(b.Name)[0], rng.Intn(900)+100),
	}
	spec.design.clone = g.cloneFor(b.Name, size)
	spec.design.lang = fieldspec.Langs()[g.language.draw(size)]

	// Obfuscation dimension: normal / OCR background labels / formless.
	switch g.obfuscation.draw(size) {
	case 1:
		spec.ocr = true
		spec.design.submitStyle = "button"
		spec.design.labelMode = "label"
	case 2:
		spec.formless = true
		spec.design.submitStyle = "formless"
		spec.design.labelMode = "label"
	default:
		spec.design.submitStyle = "button"
		if g.noButton.draw(size) {
			spec.design.submitStyle = "noButton"
		}
		switch rng.Intn(3) {
		case 0:
			spec.design.labelMode = "label"
		case 1:
			spec.design.labelMode = "placeholder"
		default:
			spec.design.labelMode = "attr"
		}
	}

	// Keylogging tiers (nested quotas).
	if g.keylog1.draw(size) {
		spec.design.keyloggerTier = 1
		if g.keylog2.draw(size) {
			spec.design.keyloggerTier = 2
			if g.keylog3.draw(size) {
				spec.design.keyloggerTier = 3
			}
		}
	}

	// Multi-page structure.
	spec.multi = g.multi.draw(size)
	if spec.multi {
		spec.pageCount = 2 + g.pageCount.draw(size)
		spec.ctFirst = g.ctFirst.draw(size)
		spec.ctInner = g.ctInner.draw(size)
		spec.doubleLogin = g.doubleLogin.draw(size)
		switch g.termination.draw(size) {
		case 0:
			spec.termination = site.TermRedirectLegit
			spec.redirectTo = drawRedirectDomain(rng, b)
		case 1:
			spec.termination = site.TermSuccess
		case 2:
			spec.termination = site.TermCustomError
		case 3:
			spec.termination = site.TermHTTPError
		case 4:
			spec.termination = site.TermAwareness
		case 5:
			spec.termination = "other-final"
		default:
			spec.termination = site.TermNone
		}
		// Kits deploy one verification gate, not two: CAPTCHAs are drawn
		// only among campaigns without a click-through first page. The
		// quota's denominator advances only on eligible campaigns, keeping
		// the overall CAPTCHA rate on target.
		captchaChoice := 0
		if !spec.ctFirst {
			captchaChoice = g.captchaType.draw(size)
		}
		switch captchaChoice {
		case 1:
			spec.hasCaptcha = true
			spec.captchaProv = captcha.ProviderRecaptcha
			spec.captchaKind = captcha.Visual2
		case 2:
			spec.hasCaptcha = true
			spec.captchaProv = captcha.ProviderHcaptcha
			spec.captchaKind = captcha.Visual2
		case 3:
			spec.hasCaptcha = true
			spec.captchaProv = captcha.ProviderCustom
			spec.captchaKind = captcha.TextKinds()[rng.Intn(6)]
		case 4:
			spec.hasCaptcha = true
			spec.captchaProv = captcha.ProviderCustom
			spec.captchaKind = captcha.Visual1
		}
	} else {
		spec.pageCount = 1
		spec.termination = site.TermNone
	}

	// Code / 2FA fields.
	spec.hasCode = g.hasCode.draw(size)
	if spec.hasCode {
		spec.otpStyle = g.otpStyle.draw(size)
	}

	spec.dataFields = planDataFields(rng, spec)
	spec.sharedSLD = g.sharedSLD.draw(size)
	spec.consent = g.consent.draw(size)
	// Cloaking: drawn only when enabled, so disabled corpora consume the
	// identical rng stream as before the dimension existed.
	if g.cloak != nil && g.cloak.draw(size) {
		spec.cloakRules = drawCloakRules(g, size)
	}
	spec.pageSeed = rng.Int63()
	return spec
}

func drawRedirectDomain(rng *rand.Rand, b brands.Brand) string {
	generic := []string{
		"google.com", "youtube.com", "example.com", "example.org",
		"example.net", "yahoo.com", "godaddy.com", "live.com",
	}
	if rng.Float64() < 0.62 {
		return b.LegitDomain
	}
	return generic[rng.Intn(len(generic))]
}

func loginFields(rng *rand.Rand) []fieldspec.Type {
	switch u := rng.Float64(); {
	case u < 0.70:
		return []fieldspec.Type{fieldspec.Email, fieldspec.Password}
	case u < 0.85:
		return []fieldspec.Type{fieldspec.UserID, fieldspec.Password}
	default:
		return []fieldspec.Type{fieldspec.Phone, fieldspec.Password}
	}
}

func personalFields(rng *rand.Rand) []fieldspec.Type {
	base := []fieldspec.Type{fieldspec.Name, fieldspec.Address, fieldspec.City}
	if rng.Intn(2) == 0 {
		base = append(base, fieldspec.State)
	}
	if rng.Intn(2) == 0 {
		base = append(base, fieldspec.Phone)
	}
	if rng.Intn(3) == 0 {
		base = append(base, fieldspec.Date)
	}
	return base
}

func socialFields(rng *rand.Rand) []fieldspec.Type {
	out := []fieldspec.Type{fieldspec.SSN}
	if rng.Intn(2) == 0 {
		out = append(out, fieldspec.License)
	}
	if rng.Intn(2) == 0 {
		out = append(out, fieldspec.Question, fieldspec.Answer)
	}
	if rng.Intn(3) == 0 {
		out = append(out, fieldspec.Date)
	}
	return out
}

func financialFields(rng *rand.Rand) []fieldspec.Type {
	out := []fieldspec.Type{fieldspec.Card, fieldspec.ExpDate, fieldspec.CVV}
	if rng.Intn(2) == 0 {
		out = append(out, fieldspec.Name)
	}
	return out
}

// planDataFields lays out the data-stealing stages: login information early,
// personal and financial data in later stages (the Figure 9 shape).
func planDataFields(rng *rand.Rand, spec *campaignSpec) [][]fieldspec.Type {
	extras := 0
	if spec.ctFirst {
		extras++
	}
	if spec.ctInner {
		extras++
	}
	if spec.hasCaptcha {
		extras++
	}
	needsTerminal := spec.termination == site.TermSuccess || spec.termination == site.TermCustomError ||
		spec.termination == site.TermAwareness || spec.termination == "other-final"
	if needsTerminal {
		extras++
	}
	n := spec.pageCount - extras
	if n < 1 {
		// Budget pressure: drop the optional inner click-through first,
		// then grow the flow rather than dropping the CAPTCHA or the
		// first-page click-through — those are the rare patterns whose
		// corpus rates must hold.
		if spec.ctInner {
			spec.ctInner = false
			extras--
		}
		n = spec.pageCount - extras
		if n < 1 {
			n = 1
			spec.pageCount = extras + 1
		}
	}
	var stages [][]fieldspec.Type
	loginless := rng.Float64() < 0.05 // the Figure 11 pattern
	for i := 0; i < n; i++ {
		switch {
		case i == 0 && !loginless:
			stages = append(stages, loginFields(rng))
		case i == 0 && loginless:
			stages = append(stages, personalFields(rng))
		case i == n-1 && spec.hasCode && n >= 2:
			stages = append(stages, []fieldspec.Type{fieldspec.Code})
		case i == 1 && n >= 3:
			if rng.Float64() < 0.12 {
				stages = append(stages, socialFields(rng))
			} else {
				stages = append(stages, personalFields(rng))
			}
		default:
			stages = append(stages, financialFields(rng))
		}
	}
	if spec.hasCode && len(stages) == 1 {
		stages[0] = append(stages[0], fieldspec.Code)
	}
	return stages
}

// kit is one campaign's build: the pages, images and ground truth that
// every deployment serves, and the brand word its hostnames are made from.
type kit struct {
	spec    *campaignSpec
	campIdx int
	word    string
	pages   []*site.Page
	images  map[string][]byte
	truth   site.Truth
}

// deploy returns deployment siteInCamp of the kit as corpus site
// globalIdx. Only the ID, the hostname and the cloak decoy (which names the
// host) are its own; pages, images and truth are the kit's.
func (k *kit) deploy(siteInCamp, globalIdx int) *site.Site {
	var host string
	if k.spec.sharedSLD {
		host = fmt.Sprintf("v%d.%s-c%d.test", siteInCamp, k.word, k.campIdx)
	} else {
		host = fmt.Sprintf("login.%s-%d-%d.test", k.word, k.campIdx, siteInCamp)
	}
	s := &site.Site{
		ID:         fmt.Sprintf("site-%06d", globalIdx),
		Host:       host,
		Brand:      k.spec.design.brand.Name,
		Category:   k.spec.design.brand.Category,
		CampaignID: k.spec.id,
		Pages:      k.pages,
		Images:     k.images,
		Truth:      k.truth,
	}
	if len(k.spec.cloakRules) > 0 {
		s.Cloak = &site.Cloak{Rules: k.spec.cloakRules, DecoyHTML: buildDecoyHTML(host)}
	}
	return s
}

// buildKit builds the campaign kit that spec, the campIdx-th campaign,
// describes. Page construction is seeded per campaign, so the kit is what
// every deployment would build for itself.
func buildKit(spec *campaignSpec, campIdx int) *kit {
	rng := rand.New(rand.NewSource(spec.pageSeed))
	word := strings.ToLower(strings.Fields(spec.design.brand.Name)[0])
	word = strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' {
			return r
		}
		return -1
	}, word)
	if word == "" {
		word = "secure"
	}
	k := &kit{spec: spec, campIdx: campIdx, word: word, images: map[string][]byte{}}
	d := spec.design
	pb := newPageBuilder(&d, rng, k.images)

	type slot struct{ kind string }
	var slots []slot
	if spec.ctFirst {
		slots = append(slots, slot{"ct"})
	}
	if spec.hasCaptcha {
		slots = append(slots, slot{"captcha"})
	}
	for i := range spec.dataFields {
		slots = append(slots, slot{fmt.Sprintf("data%d", i)})
		if spec.ctInner && i == 0 && len(spec.dataFields) > 1 {
			slots = append(slots, slot{"ct"})
		}
	}
	needsTerminalPage := spec.termination == site.TermSuccess ||
		spec.termination == site.TermCustomError ||
		spec.termination == site.TermAwareness || spec.termination == "other-final"
	if needsTerminalPage {
		slots = append(slots, slot{"terminal"})
	}
	paths := make([]string, len(slots))
	for i := range slots {
		if i == 0 {
			paths[i] = "/"
		} else {
			paths[i] = fmt.Sprintf("/s%d", i+1)
		}
	}

	truth := site.Truth{
		ClickThroughFirst: spec.ctFirst,
		ClickThroughInner: spec.ctInner,
		HasCaptcha:        spec.hasCaptcha,
		CaptchaKind:       spec.captchaKind,
		CaptchaProvider:   spec.captchaProv,
		KeyloggerTier:     spec.design.keyloggerTier,
		DoubleLogin:       spec.doubleLogin,
		Termination:       spec.termination,
		RedirectDomain:    spec.redirectTo,
		TwoFactor:         spec.hasCode && spec.otpStyle,
		Clones:            spec.design.clone,
		Language:          string(spec.design.lang),
	}
	if truth.Termination == "other-final" {
		truth.Termination = site.TermNone
	}
	if len(spec.cloakRules) > 0 {
		truth.Cloaked = true
		for _, r := range spec.cloakRules {
			truth.CloakKinds = append(truth.CloakKinds, r.Kind)
		}
	}

	dataSeen := 0
	firstData := true
	for i, sl := range slots {
		next := ""
		if i+1 < len(slots) {
			next = paths[i+1]
		}
		pg := &site.Page{Path: paths[i]}
		switch {
		case sl.kind == "ct":
			pg.HTML = pb.buildClickThroughPage(next)
		case sl.kind == "captcha":
			pg.HTML, pg.Validate = pb.buildCaptchaPage(spec.captchaProv, spec.captchaKind, paths[i], next)
			if pg.Validate != nil {
				pg.Mode = site.NextRedirect
				pg.Next = next
			}
		case strings.HasPrefix(sl.kind, "data"):
			fields := spec.dataFields[dataSeen]
			specPage := dataPageSpec{
				fields:   fields,
				otpStyle: spec.otpStyle,
				ocr:      spec.ocr,
				clone:    spec.design.clone && firstData,
				consent:  spec.consent && firstData && !spec.ocr,
			}
			if specPage.clone && specPage.ocr {
				// A cloned capture with OCR labels is the Figure 3 page.
				truth.OCRObfuscated = true
			} else if specPage.ocr {
				truth.OCRObfuscated = true
			}
			if spec.formless {
				truth.NoStandardSubmit = true
			}
			var labels []string
			pg.HTML, labels = pb.buildDataPage(specPage, paths[i])
			pg.Fields = fields
			pg.FieldLabels = labels
			if specPage.consent {
				// Submission requires the checkbox to be ticked.
				if pg.Validate == nil {
					pg.Validate = map[string]string{}
				}
				pg.Validate["agree"] = site.ValidateAny
			}
			truth.FieldsPerPage = append(truth.FieldsPerPage, fields)
			switch {
			case next == "" && spec.termination == site.TermRedirectLegit && dataSeen == len(spec.dataFields)-1:
				pg.Mode = site.NextExternal
				pg.Next = "http://" + spec.redirectTo + "/"
			case next == "" && spec.termination == site.TermHTTPError && dataSeen == len(spec.dataFields)-1:
				pg.FailStatus = []int{404, 500, 503}[rng.Intn(3)]
			case next == "":
				pg.Mode = site.NextNone
			case rng.Intn(4) == 0:
				pg.Mode = site.NextInline
				pg.Next = next
			default:
				pg.Mode = site.NextRedirect
				pg.Next = next
			}
			if spec.doubleLogin && firstData && fields[0] != fieldspec.Card {
				retry := dataPageSpec{fields: fields, otpStyle: spec.otpStyle, withErr: true, ocr: spec.ocr, clone: specPage.clone}
				pg.DoubleLoginHTML, _ = pb.buildDataPage(retry, paths[i])
			}
			dataSeen++
			firstData = false
		case sl.kind == "terminal":
			pg.HTML = pb.buildTerminalPage(spec.termination)
		}
		k.pages = append(k.pages, pg)
	}
	truth.NumPages = len(k.pages)
	truth.MultiPage = len(k.pages) > 1
	k.truth = truth
	return k
}
