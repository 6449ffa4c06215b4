// Package vision implements the deep-learning object detector of the paper
// (a Faster R-CNN fine-tuned on 10,000 generated pages, Sections 4.3 and
// 5.3.2) as a classical detection pipeline over raster screenshots: salient
// region proposals from connected components, a hand-crafted appearance
// feature vector per region, and a nearest-centroid classifier whose
// per-class statistics are fitted ("fine-tuned") on annotated generated
// pages. It detects the same classes as Table 5: six text-CAPTCHA styles,
// two visual-CAPTCHA styles, buttons, and logos.
package vision

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/raster"
)

// FeatureDim is the length of the appearance feature vector.
const FeatureDim = 28

// Features computes the appearance feature vector of the region r in img.
// It reads only the pixels of r, clipped to the image, so the cost is
// O(r.Area()) regardless of image size.
func Features(img *raster.Image, r raster.Rect) []float64 {
	return featuresInto(make([]float64, FeatureDim), img, r)
}

// inkColor marks the palette colors that count as ink (Intensity < 128).
var inkColor = func() (t [raster.NumColors]bool) {
	for c := range t {
		t[c] = raster.ColorIntensity(raster.Color(c)) < 128
	}
	return t
}()

// isNonWhite is 1 for a palette color other than White, 0 otherwise: a
// byte outside the palette reads as blank.
func isNonWhite(p raster.Color) int {
	if p != raster.White && p < raster.NumColors {
		return 1
	}
	return 0
}

// boxCounts holds everything the features other than the checkbox search
// read, gathered in one pass over a box's pixels: the palette histogram
// (out-of-palette pixels are not counted), the horizontally and vertically
// adjacent pixel pairs that differ, the non-white and ink counts of every
// row, the non-white count of every column, and the palette histogram of
// the header strip's full-width rows. Rows and columns are indexed from the
// box's corner.
type boxCounts struct {
	hist, strip    [raster.NumColors]int
	hTrans, vTrans int
	rowNW, rowInk  []int32
	colNW          []int32
}

var countsPool = sync.Pool{New: func() any { return new(boxCounts) }}

// count fills c over r, which lies inside img and is not empty. Rows
// [s0, s1) are the header strip's. A row equal to the row above adds the
// same counts and no vertical transition, so a run of equal rows is
// counted once and multiplied, and each row is read a run of equal pixels
// at a time.
func (c *boxCounts) count(img *raster.Image, r raster.Rect, s0, s1 int) {
	c.hist, c.strip = [raster.NumColors]int{}, [raster.NumColors]int{}
	c.hTrans, c.vTrans = 0, 0
	c.rowNW = slices.Grow(c.rowNW[:0], r.H)[:r.H]
	c.rowInk = slices.Grow(c.rowInk[:0], r.H)[:r.H]
	c.colNW = slices.Grow(c.colNW[:0], r.W)[:r.W]
	clear(c.colNW)
	pix := img.Bytes()
	line := func(y int) []byte { return pix[(r.Y+y)*img.W+r.X : (r.Y+y)*img.W+r.X+r.W] }
	var above []byte
	for y := 0; y < r.H; {
		row := line(y)
		m := 1
		for y+m < r.H && bytes.Equal(line(y+m), row) {
			m++
		}
		if above != nil {
			c.vTrans += differing(row, above)
		}
		var hist [raster.NumColors]int
		runs := 0
		for i := 0; i < len(row); runs++ {
			p := row[i]
			j := raster.RunEnd(row, i+1, p)
			if p < byte(raster.NumColors) {
				hist[p] += j - i
				if p != byte(raster.White) {
					for x := i; x < j; x++ {
						c.colNW[x] += int32(m)
					}
				}
			}
			i = j
		}
		c.hTrans += m * (runs - 1)
		inStrip := max(0, min(y+m, s1)-max(y, s0)) // rows of the run in the strip
		nw, ink := 0, 0
		for k, n := range hist {
			c.hist[k] += m * n
			c.strip[k] += inStrip * n
			if k != int(raster.White) {
				nw += n
			}
			if inkColor[k] {
				ink += n
			}
		}
		for k := y; k < y+m; k++ {
			c.rowNW[k], c.rowInk[k] = int32(nw), int32(ink)
		}
		above = row
		y += m
	}
}

// differing returns how many positions of a and b (of equal length) hold
// different bytes, comparing eight at a time.
func differing(a, b []byte) int {
	n, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		d := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if d != 0 {
			// Fold each byte's bits into its lowest bit.
			d |= d >> 4
			d |= d >> 2
			d |= d >> 1
			n += bits.OnesCount64(d & 0x0101010101010101)
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// checkboxFeature is the index of checkboxScore in the feature vector: the
// one feature Detect computes only for a box that may still be emitted.
const checkboxFeature = 26

// featuresInto fills f (length FeatureDim) with the feature vector of r,
// clipped to img, and returns it, letting batch callers reuse one buffer
// across regions.
func featuresInto(f []float64, img *raster.Image, r raster.Rect) []float64 {
	r = countFeaturesInto(f, img, r)
	f[checkboxFeature] = checkboxScore(img, r)
	return f
}

// countFeaturesInto fills every feature of r, clipped to img, but the
// checkbox score, which it leaves 0: the features one boxCounts pass gives.
// It returns the clipped box.
func countFeaturesInto(f []float64, img *raster.Image, r raster.Rect) raster.Rect {
	for i := range f {
		f[i] = 0
	}
	r = r.Clip(img.W, img.H)
	if r.Empty() {
		return r
	}
	w, h := float64(r.W), float64(r.H)
	f[0] = math.Log(w)
	f[1] = math.Log(h)
	f[2] = w / h

	c := countsPool.Get().(*boxCounts)
	defer countsPool.Put(c)
	s0, s1 := headerStrip(r)
	c.count(img, r, s0, s1)
	area := float64(r.Area())
	totalInk := 0
	for col, n := range c.hist {
		f[3+col] = float64(n) / area
		if inkColor[col] {
			totalInk += n
		}
	}
	f[19] = float64(totalInk) / area
	f[20] = float64(c.hTrans) / area
	f[21] = float64(c.vTrans) / area
	f[22] = gridScoreH(img, r, c)
	f[23] = gridScoreV(img, r, c)
	f[24] = glyphBandRatio(r, c, totalInk)
	f[25] = borderScore(r, c)
	f[27] = headerScore(img, r, c, s0, s1)
	return r
}

// gridScoreH returns the fraction of interior rows that are near-uniform
// non-background lines (grid/stripe structure). A row's interior is the
// row without its two end pixels; a box at most 2 pixels wide has none, so
// every row passes.
func gridScoreH(img *raster.Image, r raster.Rect, c *boxCounts) float64 {
	if r.H < 4 {
		return 0
	}
	lines := 0
	for y := 1; y < r.H-1; y++ {
		nonBG := 0
		if r.W > 2 {
			row := img.Pix[(r.Y+y)*img.W+r.X : (r.Y+y)*img.W+r.X+r.W]
			nonBG = int(c.rowNW[y]) - isNonWhite(row[0]) - isNonWhite(row[r.W-1])
		}
		if float64(nonBG) >= 0.85*float64(r.W-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.H-2)
}

func gridScoreV(img *raster.Image, r raster.Rect, c *boxCounts) float64 {
	if r.W < 4 {
		return 0
	}
	top := img.Pix[r.Y*img.W+r.X : r.Y*img.W+r.X+r.W]
	bottom := img.Pix[(r.Y+r.H-1)*img.W+r.X : (r.Y+r.H-1)*img.W+r.X+r.W]
	lines := 0
	for x := 1; x < r.W-1; x++ {
		nonBG := 0
		if r.H > 2 {
			nonBG = int(c.colNW[x]) - isNonWhite(top[x]) - isNonWhite(bottom[x])
		}
		if float64(nonBG) >= 0.85*float64(r.H-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.W-2)
}

// glyphBandRatio measures how much of the region's ink falls into a
// glyph-height band around the vertical center — high for single-line text
// such as button labels and text CAPTCHAs.
func glyphBandRatio(r raster.Rect, c *boxCounts, totalInk int) float64 {
	if totalInk == 0 {
		return 0
	}
	mid := r.H / 2
	bandInk := 0
	for _, n := range c.rowInk[max(0, mid-raster.GlyphH):min(r.H, mid+raster.GlyphH+1)] {
		bandInk += int(n)
	}
	return float64(bandInk) / float64(totalInk)
}

// borderScore returns the fraction of perimeter pixels that differ from the
// page background, indicating an outlined widget. Perimeter corners count
// twice (in both numerator and denominator), matching the row/column strip
// decomposition.
func borderScore(r raster.Rect, c *boxCounts) float64 {
	hit := c.rowNW[0] + c.rowNW[r.H-1] + c.colNW[0] + c.colNW[r.W-1]
	return float64(hit) / float64(2*r.W+2*r.H)
}

// checkboxScore looks for a small light square with a darker outline in the
// left third of the region — the signature of the "I'm not a robot"
// widget. A square scores its outline's non-white fraction times its
// interior's light fraction, and the best square wins. The search is exact
// but skips what cannot beat the best so far: a band of rows with no
// non-white pixel scores 0 in every square; a square whose light fraction
// is at most the best cannot exceed it, since the outline fraction is at
// most 1 and float rounding is monotone; and nothing exceeds a perfect 1.
// Every square lies in the left third of r, one summed-area table covers
// it, and the reads skip clipping. The score lies in [0, 1], since an
// outline holds at most per non-white pixels and an interior at most n
// light ones, and Detect's bound relies on that range: it skips the search
// on a box that no score in [0, 1] could make a detection.
func checkboxScore(img *raster.Image, r raster.Rect) float64 {
	if r.W < 30 || r.H < 14 {
		return 0
	}
	in := raster.NewIntegralRegion(img, raster.R(r.X, r.Y, r.W/3+1, r.H))
	defer in.Release()
	x0, x1 := r.X+2, r.X+r.W/3 // squares start at x0 and end before x1-1
	best := 0.0
	for size := 8; size <= 16 && x0+size < x1; size += 2 {
		inner := size - 4
		n, per := float64(inner*inner), float64(4*size)
		for y := r.Y + 2; y+size < r.Y+r.H-2; y++ {
			if in.NonWhiteIn(raster.R(x0, y, x1-x0, size)) == 0 {
				continue
			}
			for x := x0; x+size < x1; x++ {
				light := float64(in.LightIn(raster.R(x+2, y+2, inner, inner)))
				if light/n <= best {
					continue
				}
				hit := in.NonWhiteIn(raster.R(x, y, size, 1)) +
					in.NonWhiteIn(raster.R(x, y+size-1, size, 1)) +
					in.NonWhiteIn(raster.R(x, y, 1, size)) +
					in.NonWhiteIn(raster.R(x+size-1, y, 1, size))
				if s := float64(hit) / per * light / n; s > best {
					if s >= 1 {
						return s
					}
					best = s
				}
			}
		}
	}
	return best
}

// headerScore measures whether the region's top strip is a solid saturated
// color while the rest is not — the banner structure of image-grid
// CAPTCHAs. The strip is rows [s0, s1) of the box without its two end
// columns.
func headerScore(img *raster.Image, r raster.Rect, c *boxCounts, s0, s1 int) float64 {
	if s1 <= s0 || r.W <= 2 {
		return 0
	}
	hist := c.strip
	for y := r.Y + s0; y < r.Y+s1; y++ {
		for _, p := range [2]raster.Color{img.Pix[y*img.W+r.X], img.Pix[y*img.W+r.X+r.W-1]} {
			if p < raster.NumColors {
				hist[p]--
			}
		}
	}
	best, bestC := 0, raster.White
	for col := raster.Color(0); col < raster.NumColors; col++ {
		if v := hist[col]; v > best {
			best, bestC = v, col
		}
	}
	if bestC == raster.White || bestC == raster.LightGray {
		return 0
	}
	return float64(best) / float64((r.W-2)*(s1-s0))
}

// headerStrip returns the rows [s0, s1) of a box of r's height that
// headerScore reads, empty when the box is too short for a header.
func headerStrip(r raster.Rect) (s0, s1 int) {
	if r.H < 20 {
		return 0, 0
	}
	return 1, max(r.H/5, 4)
}
