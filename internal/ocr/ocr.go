// Package ocr recognizes text in raster images, standing in for the
// Tesseract engine in Section 4.1 of the paper. The crawler uses it to read
// labels that exist only in the page's visual rendering — most importantly
// the background-image trick of Figure 3, where field names are painted into
// an image and the DOM contains anonymous input boxes.
//
// The recognizer segments dark-on-light text into lines and glyph cells and
// matches each cell against the system font by Hamming distance, tolerating
// a configurable amount of pixel noise. Like a real OCR engine it can
// misread noisy glyphs, return partial results, and costs measurably more
// than DOM analysis (which is why the crawler only falls back to it).
//
// Binarization is exposed as the Mask type so repeat recognitions over the
// same unchanged screenshot share one thresholding pass; the convenience
// methods taking an Image build (and pool-recycle) a transient mask per
// call.
package ocr

import (
	"math/bits"
	"strings"
	"sync"

	"repro/internal/raster"
)

// Result is one recognized line of text with its bounding box.
type Result struct {
	Text string
	Box  raster.Rect
	// Confidence is the mean per-glyph match quality in [0, 1].
	Confidence float64
}

// Engine recognizes text. The zero value uses sensible defaults.
type Engine struct {
	// MaxGlyphNoise is the number of mismatched pixels tolerated per glyph
	// before the glyph is rejected. Default 4 (of 35 pixels).
	MaxGlyphNoise int
	// MinConfidence drops whole lines whose mean glyph quality is below the
	// threshold. Default 0.5.
	MinConfidence float64
}

// New returns an Engine with default tolerances.
func New() *Engine {
	return &Engine{MaxGlyphNoise: 4, MinConfidence: 0.5}
}

func (e *Engine) maxNoise() int {
	if e.MaxGlyphNoise > 0 {
		return e.MaxGlyphNoise
	}
	return 4
}

func (e *Engine) minConf() float64 {
	if e.MinConfidence > 0 {
		return e.MinConfidence
	}
	return 0.5
}

// RecognizeRegion extracts all text lines inside the given region of img.
// Boxes are reported in img coordinates.
func (e *Engine) RecognizeRegion(img *raster.Image, region raster.Rect) []Result {
	m := NewMaskRegion(img, region)
	out := e.RecognizeMask(m, m.Region)
	m.Release()
	return out
}

// Recognize extracts all text lines in img.
func (e *Engine) Recognize(img *raster.Image) []Result {
	m := NewMask(img)
	out := e.RecognizeMask(m, m.Region)
	m.Release()
	return out
}

// RecognizeMask extracts all text lines inside region using a prebuilt
// ink mask — the batch entry point for callers recognizing several regions
// of the same screenshot. Boxes are reported in image coordinates.
func (e *Engine) RecognizeMask(m *Mask, region raster.Rect) []Result {
	region = region.Intersect(m.Region)
	if region.Empty() {
		return nil
	}
	s := ocrScratchPool.Get().(*ocrScratch)
	var out []Result
	for _, band := range horizontalBands(m, region, s) {
		if band.h < raster.GlyphH {
			continue
		}
		for _, seg := range lineSegments(m, region, band, s) {
			text, conf := e.readSegment(m, seg)
			text = strings.TrimSpace(text)
			if text == "" || conf < e.minConf() {
				continue
			}
			out = append(out, Result{
				Text:       text,
				Box:        raster.R(seg.x, band.y, seg.w, band.h),
				Confidence: conf,
			})
		}
	}
	ocrScratchPool.Put(s)
	return out
}

// Text returns all recognized text in img joined by newlines.
func (e *Engine) Text(img *raster.Image) string {
	return joinLines(e.Recognize(img))
}

func joinLines(rs []Result) string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.Text
	}
	return strings.Join(lines, "\n")
}

// textNearRegions are the two areas the paper's crawler searches for
// input-field labels (Section 4.1 step 3): above and to the left of the
// field box, up to dist pixels away.
func textNearRegions(box raster.Rect, dist int) [2]raster.Rect {
	return [2]raster.Rect{
		// Above: full width of the box plus margins, dist tall.
		raster.R(box.X-dist/2, box.Y-dist, box.W+dist, dist),
		// Left: dist wide, box height plus margin.
		raster.R(box.X-dist, box.Y-2, dist, box.H+4),
	}
}

// TextNear returns the text found to the left of and above the given box,
// up to dist pixels away. Each search region is binarized on the fly; use
// TextNearMask with a cached page mask when reading labels for several
// boxes of the same screenshot.
func (e *Engine) TextNear(img *raster.Image, box raster.Rect, dist int) string {
	var parts []string
	for _, region := range textNearRegions(box, dist) {
		m := NewMaskRegion(img, region)
		for _, r := range e.RecognizeMask(m, m.Region) {
			parts = append(parts, r.Text)
		}
		m.Release()
	}
	return strings.Join(parts, " ")
}

// TextNearMask is TextNear against a prebuilt ink mask.
func (e *Engine) TextNearMask(m *Mask, box raster.Rect, dist int) string {
	var parts []string
	for _, region := range textNearRegions(box, dist) {
		for _, r := range e.RecognizeMask(m, region) {
			parts = append(parts, r.Text)
		}
	}
	return strings.Join(parts, " ")
}

// ocrScratch holds the per-call row/column flag buffers and band/segment
// lists, recycled through a pool so recognition does not allocate them per
// region.
type ocrScratch struct {
	rows  []bool
	cols  []bool
	bands []band
	segs  []segment
}

var ocrScratchPool = sync.Pool{New: func() any { return new(ocrScratch) }}

func boolBuf(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

type band struct{ y, h int }

// horizontalBands finds maximal runs of rows inside region containing at
// least one ink pixel. Band coordinates are absolute.
func horizontalBands(m *Mask, region raster.Rect, s *ocrScratch) []band {
	rowHasInk := boolBuf(&s.rows, region.H)
	for y := 0; y < region.H; y++ {
		for _, on := range m.row(region, region.Y+y) {
			if on {
				rowHasInk[y] = true
				break
			}
		}
	}
	bands := s.bands[:0]
	y := 0
	for y < region.H {
		if !rowHasInk[y] {
			y++
			continue
		}
		start := y
		for y < region.H && rowHasInk[y] {
			y++
		}
		bands = append(bands, band{region.Y + start, y - start})
	}
	s.bands = bands
	return bands
}

type segment struct {
	x, w   int
	y, h   int
	gapMap map[int]bool // columns within the segment that are word gaps
}

// lineSegments splits a band into word-level segments separated by wide
// horizontal gaps, and records intra-segment word gaps. Coordinates are
// absolute.
func lineSegments(m *Mask, region raster.Rect, b band, s *ocrScratch) []segment {
	colHasInk := boolBuf(&s.cols, region.W)
	for dy := 0; dy < b.h; dy++ {
		for x, on := range m.row(raster.R(region.X, b.y, region.W, b.h), b.y+dy) {
			if on {
				colHasInk[x] = true
			}
		}
	}
	// A gap wider than 3 glyph advances splits segments (separate labels);
	// narrower gaps over 1 advance are word boundaries within a segment.
	const segGap = raster.AdvanceX * 3
	segs := s.segs[:0]
	x := 0
	for x < region.W {
		if !colHasInk[x] {
			x++
			continue
		}
		start := x
		gapStart := -1
		var gaps map[int]bool
		for x < region.W {
			if colHasInk[x] {
				if gapStart >= 0 {
					gapW := x - gapStart
					if gapW >= segGap {
						break
					}
					if gapW >= raster.AdvanceX {
						if gaps == nil {
							gaps = map[int]bool{}
						}
						for g := gapStart; g < x; g++ {
							gaps[region.X+g] = true
						}
					}
					gapStart = -1
				}
				x++
				continue
			}
			if gapStart < 0 {
				gapStart = x
			}
			x++
		}
		end := x
		if gapStart >= 0 {
			end = gapStart
		}
		segs = append(segs, segment{x: region.X + start, w: end - start, y: b.y, h: b.h, gapMap: gaps})
		if gapStart >= 0 {
			x = gapStart
		}
	}
	s.segs = segs
	return segs
}

// readSegment walks a segment left to right in glyph-cell steps, matching
// each cell against the font.
func (e *Engine) readSegment(m *Mask, seg segment) (string, float64) {
	var b strings.Builder
	var totalQ float64
	var nGlyphs int
	x := seg.x
	end := seg.x + seg.w
	pendingSpace := false
	for x+raster.GlyphW <= end+1 {
		if seg.gapMap[x] {
			pendingSpace = true
			x++
			continue
		}
		// Extract the 5x7 cell anchored at (x, seg.y). Glyphs with blank
		// leading columns (such as '1') make the first ink column fall to
		// the right of the true glyph origin, so try anchoring the cell up
		// to two pixels earlier and keep the best alignment.
		bestR, bestDist, bestAnchor := rune(0), raster.GlyphW*raster.GlyphH+1, x
		for dx := 0; dx <= 2; dx++ {
			cell := extractCell(m, x-dx, seg.y, seg.h)
			if cell == 0 {
				continue
			}
			r, dist := matchGlyph(cell)
			if dist < bestDist {
				bestR, bestDist, bestAnchor = r, dist, x-dx
			}
		}
		if bestR == 0 {
			x++
			continue
		}
		if bestDist > e.maxNoise() {
			// Unrecognizable: advance one pixel hoping to re-synchronize.
			x++
			continue
		}
		if pendingSpace && b.Len() > 0 {
			b.WriteByte(' ')
		}
		pendingSpace = false
		b.WriteRune(bestR)
		totalQ += 1 - float64(bestDist)/float64(raster.GlyphW*raster.GlyphH)
		nGlyphs++
		x = bestAnchor + raster.AdvanceX
	}
	if nGlyphs == 0 {
		return "", 0
	}
	return b.String(), totalQ / float64(nGlyphs)
}

// extractCell reads a GlyphW x GlyphH window at absolute (x, y) into a
// bit-packed cell (bit gy*GlyphW+gx). Bands taller than GlyphH anchor the
// window at the band top; trailing rows are ignored. Pixels outside the
// mask's region read as blank. GlyphW*GlyphH (35) bits fit one uint64, so
// glyph matching is XOR + popcount instead of a per-pixel comparison loop.
func extractCell(m *Mask, x, y, h int) uint64 {
	var cell uint64
	for gy := 0; gy < raster.GlyphH && gy < h; gy++ {
		for gx := 0; gx < raster.GlyphW; gx++ {
			if m.At(x+gx, y+gy) {
				cell |= 1 << uint(gy*raster.GlyphW+gx)
			}
		}
	}
	return cell
}

// glyphTable caches the font as bit-packed bitmaps for matching.
var glyphTable = buildGlyphTable()

type glyphEntry struct {
	r    rune
	bits uint64
}

func buildGlyphTable() []glyphEntry {
	var out []glyphEntry
	for _, r := range raster.GlyphRunes() {
		g, _ := raster.Glyph(r)
		var packed uint64
		for y := 0; y < raster.GlyphH; y++ {
			for x := 0; x < raster.GlyphW; x++ {
				if g[y][x] == 'X' {
					packed |= 1 << uint(y*raster.GlyphW+x)
				}
			}
		}
		out = append(out, glyphEntry{r, packed})
	}
	return out
}

// matchGlyph returns the best-matching rune and its Hamming distance.
func matchGlyph(cell uint64) (rune, int) {
	best := rune(0)
	bestDist := raster.GlyphW*raster.GlyphH + 1
	for _, g := range glyphTable {
		if d := bits.OnesCount64(cell ^ g.bits); d < bestDist {
			best, bestDist = g.r, d
		}
	}
	return best, bestDist
}
