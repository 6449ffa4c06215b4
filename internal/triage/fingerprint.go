package triage

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/dom"
	"repro/internal/farm"
	"repro/internal/phash"
	"repro/internal/visualphish"
)

// Fingerprint is what one probe fetch learns about a URL: the visual and
// structural identity the campaign index clusters on, plus enough page
// metadata to synthesize the fast-path session log without a second fetch.
type Fingerprint struct {
	URL     string `json:"url"`
	Host    string `json:"host"`
	Status  int    `json:"status"`
	Title   string `json:"title"`
	Text    string `json:"text"`
	DOMHash string `json:"domHash"`
	// ContentHash is the exact-clone identity: structure + title + text +
	// rendering hash. DOMHash alone is the transition-detection structural
	// hash, which different kits sharing a page template collide on; the
	// content hash only matches byte-identical deployments of one kit.
	ContentHash string                `json:"contentHash"`
	PHash       phash.Hash            `json:"pHash"`
	Emb         visualphish.Embedding `json:"emb"`
	// OK marks a healthy, indexable landing page. Dead/timeout/5xx/takedown
	// probes are not indexable: a full session must classify the failure
	// (preserving the failure taxonomy and recall under chaos), and a
	// hosting provider's shared suspension page must never found a
	// "campaign" that swallows every other suspended site.
	OK bool `json:"ok"`
	// Err is the failure-taxonomy class when !OK.
	Err string `json:"err,omitempty"`
}

// probe fetches url once and fingerprints the landing page. One Navigate,
// at most one render — no interaction budget, no retries. The browser
// comes from the same factory (and therefore the same chaos-wrapped
// transport) the crawler uses, so a fault-injected feed faults probes
// exactly as it would fault a session's first fetch. The page's look comes
// from memo, so a landing page whose content was seen before is not
// rendered. A panic while fetching or fingerprinting the page (hostile
// content) makes the probe unhealthy: the URL then gets a full session,
// under the farm's panic guard.
func probe(newBrowser func() *browser.Browser, memo *crawler.Memo, rawURL string) (fp Fingerprint) {
	defer func() {
		if r := recover(); r != nil {
			fp = Fingerprint{URL: rawURL, Err: farm.OutcomePanic}
		}
	}()
	fp = Fingerprint{URL: rawURL}
	b := newBrowser()
	page, err := b.Navigate(rawURL)
	if err != nil {
		fp.Err = crawler.ClassifyError(err)
		return fp
	}
	fp.Host = page.Host()
	fp.Status = page.Status
	fp.Title = dom.Title(page.Doc)
	fp.Text = page.Doc.InnerText()
	if page.Status >= http.StatusInternalServerError {
		fp.Err = crawler.OutcomeServerError
		return fp
	}
	if crawler.IsTakedownText(fp.Title, fp.Text) {
		fp.Err = crawler.OutcomeTakedown
		return fp
	}
	fp.DOMHash = page.DOMHash()
	fp.PHash, fp.Emb = memo.Look(page)
	fp.ContentHash = contentHash(fp.DOMHash, fp.Title, fp.Text, fp.PHash)
	fp.OK = true
	return fp
}

// contentHash folds a page's structural hash, visible text, and rendering
// hash into one identity: equal only for byte-identical kit deployments.
func contentHash(domHash, title, text string, ph phash.Hash) string {
	h := fnv.New64a()
	for _, s := range []string{domHash, title, text, ph.String()} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// probeAll fingerprints every URL whose eligible flag is set, fanning out
// over workers goroutines. Results land by index, and each probe is a pure
// function of its URL (every process probes each URL exactly once, so even
// the chaos injector's stateful flaky-connection budget is consumed
// identically everywhere) — the output is independent of scheduling.
func probeAll(urls []string, eligible []bool, workers int, newBrowser func() *browser.Browser, memo *crawler.Memo) []*Fingerprint {
	fps := make([]*Fingerprint, len(urls))
	if workers <= 0 {
		workers = 1
	}
	idxCh := make(chan int, len(urls))
	for i := range urls {
		if eligible[i] {
			idxCh <- i
		}
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fp := probe(newBrowser, memo, urls[i])
				fps[i] = &fp
			}
		}()
	}
	wg.Wait()
	return fps
}
