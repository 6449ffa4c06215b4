// Package visualphish is the stand-in for VisualPhishNet (Abdelnabi et al.,
// CCS 2020), the visual-similarity model the paper uses in Section 5.1.1 to
// measure how many phishing pages actually clone the design of the brand
// they impersonate. A gallery of legitimate-site screenshots is embedded
// into a feature space (downsampled layout signature + colour histogram +
// perceptual hash bits); a query screenshot is matched to its nearest
// gallery brand. If the match differs from the ground-truth target brand —
// as with the paper's DHL page classified as "Alibaba" — the page is deemed
// *not* to clone the brand's design.
package visualphish

import (
	"math"
	"sort"

	"repro/internal/phash"
	"repro/internal/raster"
)

// The thumbnail has the perceptual hash's rows, so one pass over a region
// serves both grids.
const thumbW, thumbH = 16, phash.GridH

// Embedding is the visual feature representation of a screenshot.
type Embedding struct {
	// Thumb is a 16x16 dominant-color thumbnail capturing layout.
	Thumb []raster.Color
	// Hist is the normalized color histogram.
	Hist [raster.NumColors]float64
	// PHash captures edge structure.
	PHash phash.Hash
}

// Embed computes the embedding of a screenshot.
func Embed(img *raster.Image) Embedding {
	return embedRegion(img, raster.R(0, 0, img.W, img.H))
}

// embedRegion embeds the pixels inside r, clipped to img. A region at least
// phash.GridW pixels wide is counted in one pass: no cells of either grid
// share pixels there, so a grid cut at the union of the hash's and the
// thumbnail's column bounds sums into both. A narrower region has cells that
// share pixels and takes one pass per grid.
func embedRegion(img *raster.Image, r raster.Rect) Embedding {
	e := Embedding{Thumb: make([]raster.Color, thumbW*thumbH)}
	r = r.Clip(img.W, img.H)
	var cells []raster.Counts
	if r.W >= phash.GridW && r.H > 0 {
		var hash [phash.GridW * phash.GridH]raster.Counts
		cells = make([]raster.Counts, thumbW*thumbH)
		cuts := unionCuts(r.W)
		fine := img.CellCountsCut(r, cuts, thumbH)
		n := len(cuts) - 1
		hx, tx := 0, 0
		for j := 0; j < n; j++ {
			for (hx+1)*r.W/phash.GridW <= cuts[j] {
				hx++
			}
			for (tx+1)*r.W/thumbW <= cuts[j] {
				tx++
			}
			for gy := 0; gy < thumbH; gy++ {
				add(&hash[gy*phash.GridW+hx], &fine[gy*n+j])
				add(&cells[gy*thumbW+tx], &fine[gy*n+j])
			}
		}
		e.PHash = phash.FromCells(hash[:])
	} else {
		e.PHash = phash.ComputeRegion(img, r)
		cells = img.CellCounts(r, thumbW, thumbH)
	}
	var hist raster.Counts
	if r.W >= thumbW && r.H >= thumbH {
		// The cells tile the region: their counts add up to its histogram.
		for _, cell := range cells {
			for c, n := range cell {
				hist[c] += n
			}
		}
	} else {
		// Cells share pixels; count each pixel once.
		hist = img.CellCounts(r, 1, 1)[0]
	}
	for i := range cells {
		e.Thumb[i] = cells[i].Dominant()
	}
	total := 0
	for _, n := range hist {
		total += int(n)
	}
	if total > 0 {
		for c, n := range hist {
			e.Hist[c] = float64(n) / float64(total)
		}
	}
	return e
}

// unionCuts returns the column bounds, relative to a region w pixels wide,
// of both the hash's phash.GridW columns and the thumbnail's thumbW, in
// ascending order without repeats.
func unionCuts(w int) []int {
	cuts := make([]int, 0, phash.GridW+thumbW+2)
	for i, j := 0, 0; i <= phash.GridW || j <= thumbW; {
		a, b := w+1, w+1
		if i <= phash.GridW {
			a = i * w / phash.GridW
		}
		if j <= thumbW {
			b = j * w / thumbW
		}
		c := min(a, b)
		if a == c {
			i++
		}
		if b == c {
			j++
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// add adds the counts of b to a.
func add(a, b *raster.Counts) {
	for c := range a {
		a[c] += b[c]
	}
}

// Distance returns a dissimilarity in [0, ~2] combining thumbnail layout
// agreement, histogram divergence, and perceptual-hash distance.
func Distance(a, b Embedding) float64 {
	// Thumbnail mismatch rate.
	mism := 0
	n := len(a.Thumb)
	if len(b.Thumb) < n {
		n = len(b.Thumb)
	}
	for i := 0; i < n; i++ {
		if a.Thumb[i] != b.Thumb[i] {
			mism++
		}
	}
	thumbD := 1.0
	if n > 0 {
		thumbD = float64(mism) / float64(n)
	}
	// Histogram L1/2 distance.
	histD := 0.0
	for c := range a.Hist {
		histD += math.Abs(a.Hist[c] - b.Hist[c])
	}
	histD /= 2
	// pHash distance normalized.
	hashD := float64(phash.Distance(a.PHash, b.PHash)) / float64(phash.Bits)
	return 0.5*thumbD + 0.3*histD + 0.2*hashD
}

// EmbedCropped embeds the image's non-white content, normalizing away
// viewport margins before similarity comparison: screenshots taken at
// different viewport widths then compare by layout, not by how much white
// space surrounded the page. An all-white image embeds whole. Use it when
// query and gallery screenshots come from different viewport geometries.
func EmbedCropped(img *raster.Image) Embedding {
	r := img.ContentBounds()
	if r.Empty() {
		r = raster.R(0, 0, img.W, img.H)
	}
	return embedRegion(img, r)
}

// AddCropped inserts a gallery exemplar using the cropped embedding.
func (g *Gallery) AddCropped(brand string, screenshot *raster.Image) {
	g.entries = append(g.entries, entry{brand: brand, emb: EmbedCropped(screenshot)})
}

// MatchEmbedding matches a precomputed embedding against the gallery.
func (g *Gallery) MatchEmbedding(q Embedding) (string, float64) {
	best, bestD := "", math.Inf(1)
	for _, e := range g.entries {
		if d := Distance(q, e.emb); d < bestD {
			best, bestD = e.brand, d
		}
	}
	if bestD > g.MatchThreshold {
		return "", bestD
	}
	return best, bestD
}

// Gallery is the trained model: one or more exemplar embeddings per brand.
type Gallery struct {
	entries []entry
	// MatchThreshold is the maximum distance for a match to count at all;
	// queries farther than this from every exemplar return no match.
	MatchThreshold float64
}

type entry struct {
	brand string
	emb   Embedding
}

// NewGallery returns an empty gallery with the default match threshold.
func NewGallery() *Gallery {
	return &Gallery{MatchThreshold: 0.25}
}

// Add inserts a legitimate screenshot for a brand. Multiple screenshots per
// brand are allowed (profile pages, regional variants, ...).
func (g *Gallery) Add(brand string, screenshot *raster.Image) {
	g.entries = append(g.entries, entry{brand: brand, emb: Embed(screenshot)})
}

// Len returns the number of gallery exemplars.
func (g *Gallery) Len() int { return len(g.entries) }

// Brands returns the distinct brands in the gallery, sorted.
func (g *Gallery) Brands() []string {
	set := map[string]bool{}
	for _, e := range g.entries {
		set[e.brand] = true
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Match returns the nearest gallery brand for the screenshot and the
// distance, or ("", dist) when nothing is within the threshold — meaning the
// page does not closely resemble any known legitimate design.
func (g *Gallery) Match(screenshot *raster.Image) (string, float64) {
	q := Embed(screenshot)
	best, bestD := "", math.Inf(1)
	for _, e := range g.entries {
		if d := Distance(q, e.emb); d < bestD {
			best, bestD = e.brand, d
		}
	}
	if bestD > g.MatchThreshold {
		return "", bestD
	}
	return best, bestD
}

// Clones reports whether the screenshot closely mimics the given target
// brand: the Section 5.1.1 decision. It is false when the nearest brand
// differs from the target or nothing matches at all.
func (g *Gallery) Clones(screenshot *raster.Image, targetBrand string) bool {
	match, _ := g.Match(screenshot)
	return match == targetBrand
}
