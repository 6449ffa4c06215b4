package crawler

import (
	"crypto/sha256"
	"slices"
	"sync"

	"repro/internal/browser"
	"repro/internal/ocr"
	"repro/internal/phash"
	"repro/internal/raster"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// maxMemoEntries bounds the memo's entries and, separately, its scans: a
// store that would add one past it empties that map first. An entry holds
// a few detections, hashes and field records and at most one 16x16
// embedding thumbnail: the 9,432 entries of a 4,000-site chaos+cloak crawl
// held 4.6 MB, so the bound is about 16 MB. A scan holds 80 bytes per
// component of occupied cells, and the pages of a 60-site corpus have 12
// on average and 26 at most: about 1 KB a scan, 32 MB at the bound.
const maxMemoEntries = 1 << 15

// Memo shares the pixel-derived results of observing a page across
// sessions. Phishing kits are deployed many times over, and uncloaking
// re-attempts land on the same decoy, so most observed pages have been
// seen before with the same content: the memo keys results by
// browser.Page.ContentKey, and a session that finds them skips rendering
// the page, detecting on it, hashing it and reading its labels. It also
// keeps each detection scan by browser.Page.ScanKey, which leaves out the
// values typed into the page's input boxes, so the button detection that
// ends each data attempt re-reads only those boxes. Every result is a pure
// function of the page content and the models that derived it, so a
// session exports the same bytes whether its lookups hit or miss; a nil
// *Memo misses every lookup. One Memo is shared by every worker of a crawl
// and is safe for concurrent use.
type Memo struct {
	mu    sync.Mutex
	limit int
	m     map[memoKey]memoEntry
	scans map[scanKey]*vision.Scan
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return newMemo(maxMemoEntries) }

func newMemo(limit int) *Memo {
	return &Memo{limit: limit, m: map[memoKey]memoEntry{}, scans: map[scanKey]*vision.Scan{}}
}

// memoKey names one page content as seen by one crawler configuration:
// the detector and the OCR engine (or its absence) are part of every
// result, and the ablations run copies of one Crawler that change them.
type memoKey struct {
	content [sha256.Size]byte
	det     *vision.Detector
	ocr     *ocr.Engine
	ocrOff  bool
}

// scanKey names one detection scan: a page's browser.Page.ScanKey, which
// leaves out the values typed into its input boxes, and the detector.
type scanKey struct {
	content [sha256.Size]byte
	det     *vision.Detector
}

// memoEntry holds what has been computed for one key; each part is filled
// the first time a session needs it. Stored slices are never written.
type memoEntry struct {
	obs       *observation
	embed     *visualphish.Embedding
	fields    []memoField
	hasFields bool
}

// observation is observePage's pixel-derived part of a PageLog.
type observation struct {
	PHash           phash.Hash
	Detections      []vision.Detection
	DetectionHashes []phash.Hash
}

// memoField is one identifyFields result with its node replaced by its
// index in Doc.ElementsByTag("input", "select"): equal contents have equal
// trees, so the index names the same field on every page with the key.
type memoField struct {
	index int
	info  FieldInfo // Node unset
}

// memoLookup returns the key of p's content under c's models and what the
// memo holds for it. Without a memo it computes no key and finds nothing.
func (c *Crawler) memoLookup(p *browser.Page) (memoKey, memoEntry) {
	if c.Memo == nil {
		return memoKey{}, memoEntry{}
	}
	k := memoKey{content: p.ContentKey(), det: c.Detector, ocr: c.OCR, ocrOff: c.DisableOCR}
	c.Memo.mu.Lock()
	defer c.Memo.mu.Unlock()
	return k, c.Memo.m[k]
}

// memoStore records the parts that set fills into k's entry, keeping the
// parts already there. set runs outside the memo's lock. Without a memo
// it does nothing, and set is not called.
func (c *Crawler) memoStore(k memoKey, set func(*memoEntry)) {
	m := c.Memo
	if m == nil {
		return
	}
	var parts memoEntry
	set(&parts)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[k]
	if !ok && len(m.m) >= m.limit {
		clear(m.m)
	}
	if parts.obs != nil {
		e.obs = parts.obs
	}
	if parts.embed != nil {
		e.embed = parts.embed
	}
	if parts.hasFields {
		e.fields, e.hasFields = parts.fields, true
	}
	m.m[k] = e
}

// scanKeyOf returns the key of p's detection scan under c's detector, and
// p's value holes.
func (c *Crawler) scanKeyOf(p *browser.Page) (scanKey, []raster.Rect) {
	content, holes := p.ScanKey()
	return scanKey{content: content, det: c.Detector}, holes
}

// scan returns the detection scan stored under k, or nil.
func (m *Memo) scan(k scanKey) *vision.Scan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scans[k]
}

// storeScan records scan under k, emptying the scans first when they are
// at the memo's bound.
func (m *Memo) storeScan(k scanKey, scan *vision.Scan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.scans[k]; !ok && len(m.scans) >= m.limit {
		clear(m.scans)
	}
	m.scans[k] = scan
}

// firstPageEmbedding returns the cropped visual embedding of p.
func (c *Crawler) firstPageEmbedding(p *browser.Page) visualphish.Embedding {
	k, e := c.memoLookup(p)
	if e.embed == nil {
		emb := visualphish.EmbedCropped(p.Screenshot())
		c.memoStore(k, func(e *memoEntry) {
			stored := emb
			stored.Thumb = slices.Clone(emb.Thumb)
			e.embed = &stored
		})
		return emb
	}
	emb := *e.embed
	emb.Thumb = slices.Clone(emb.Thumb)
	return emb
}

// observe returns p's perceptual hash and, with a detector, its detections
// and the hash of each detection's crop. With a memo, detecting on a page
// not seen before also records its detection scan under its ScanKey.
func (c *Crawler) observe(p *browser.Page) observation {
	k, e := c.memoLookup(p)
	if e.obs == nil {
		shot := p.Screenshot()
		obs := observation{PHash: phash.Compute(shot)}
		if c.Detector != nil {
			if c.Memo == nil {
				obs.Detections = c.Detector.Detect(shot)
			} else {
				var scan *vision.Scan
				obs.Detections, scan = c.Detector.DetectScan(shot)
				k, _ := c.scanKeyOf(p)
				c.Memo.storeScan(k, scan)
			}
			for _, det := range obs.Detections {
				obs.DetectionHashes = append(obs.DetectionHashes, phash.ComputeRegion(shot, det.Box))
			}
		}
		c.memoStore(k, func(e *memoEntry) {
			stored := obs.clone()
			e.obs = &stored
		})
		return obs
	}
	return e.obs.clone()
}

func (o observation) clone() observation {
	o.Detections = slices.Clone(o.Detections)
	o.DetectionHashes = slices.Clone(o.DetectionHashes)
	return o
}

// buttonDetections returns the detector's button detections on p. With a
// memo, a page whose ScanKey has a stored scan (the same page, a clone, or
// either with other values typed into its input boxes) is rescanned only
// inside its value holes; one without records its scan. Callers only read
// the result.
func (c *Crawler) buttonDetections(p *browser.Page) []vision.Detection {
	if c.Memo == nil {
		return c.Detector.DetectClass(p.Screenshot(), vision.ClassButton)
	}
	k, holes := c.scanKeyOf(p)
	if scan := c.Memo.scan(k); scan != nil {
		return vision.OfClass(c.Detector.Rescan(scan, p.Screenshot(), holes), vision.ClassButton)
	}
	dets, scan := c.Detector.DetectScan(p.Screenshot())
	c.Memo.storeScan(k, scan)
	return vision.OfClass(dets, vision.ClassButton)
}
