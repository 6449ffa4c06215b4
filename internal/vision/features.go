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
	"math"

	"repro/internal/raster"
)

// FeatureDim is the length of the appearance feature vector.
const FeatureDim = 28

// Features computes the appearance feature vector of the region r in img.
// It builds a summed-area table over r only, so the cost is O(r.Area())
// regardless of image size.
func Features(img *raster.Image, r raster.Rect) []float64 {
	in := raster.NewIntegralRegion(img, r)
	f := featuresInto(make([]float64, FeatureDim), in, r)
	in.Release()
	return f
}

// featuresInto fills f (length FeatureDim) with the window's feature vector
// and returns it, letting batch callers reuse one buffer across windows.
func featuresInto(f []float64, in *raster.Integral, r raster.Rect) []float64 {
	for i := range f {
		f[i] = 0
	}
	r = r.Intersect(in.Region)
	if r.Empty() {
		return f
	}
	w, h := float64(r.W), float64(r.H)
	f[0] = math.Log(w)
	f[1] = math.Log(h)
	f[2] = w / h

	area := float64(r.Area())
	hist, hTrans, vTrans := in.Stats(r)
	for c, n := range hist {
		f[3+c] = float64(n) / area
	}
	f[19] = float64(in.InkCount(r)) / area
	f[20] = float64(hTrans) / area
	f[21] = float64(vTrans) / area
	f[22] = gridScoreH(in, r)
	f[23] = gridScoreV(in, r)
	f[24] = glyphBandRatio(in, r)
	f[25] = borderScore(in, r)
	f[26] = checkboxScore(in, r)
	f[27] = headerScore(in, r)
	return f
}

// gridScoreH returns the fraction of interior rows that are near-uniform
// non-background lines (grid/stripe structure).
func gridScoreH(in *raster.Integral, r raster.Rect) float64 {
	if r.H < 4 {
		return 0
	}
	lines := 0
	for y := r.Y + 1; y < r.Y+r.H-1; y++ {
		nonBG := in.NonWhiteCount(raster.R(r.X+1, y, r.W-2, 1))
		if float64(nonBG) >= 0.85*float64(r.W-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.H-2)
}

func gridScoreV(in *raster.Integral, r raster.Rect) float64 {
	if r.W < 4 {
		return 0
	}
	lines := 0
	for x := r.X + 1; x < r.X+r.W-1; x++ {
		nonBG := in.NonWhiteCount(raster.R(x, r.Y+1, 1, r.H-2))
		if float64(nonBG) >= 0.85*float64(r.H-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.W-2)
}

// glyphBandRatio measures how much of the region's ink falls into a
// glyph-height band around the vertical center — high for single-line text
// such as button labels and text CAPTCHAs.
func glyphBandRatio(in *raster.Integral, r raster.Rect) float64 {
	totalInk := in.InkCount(r)
	if totalInk == 0 {
		return 0
	}
	bandY0 := r.CenterY() - raster.GlyphH
	bandY1 := r.CenterY() + raster.GlyphH
	band := r.Intersect(raster.R(r.X, bandY0, r.W, bandY1-bandY0+1))
	bandInk := in.InkCount(band)
	return float64(bandInk) / float64(totalInk)
}

// borderScore returns the fraction of perimeter pixels that differ from the
// page background, indicating an outlined widget. Perimeter corners count
// twice (in both numerator and denominator), matching the row/column strip
// decomposition.
func borderScore(in *raster.Integral, r raster.Rect) float64 {
	per := 2*r.W + 2*r.H
	if per == 0 {
		return 0
	}
	hit := in.NonWhiteCount(raster.R(r.X, r.Y, r.W, 1)) +
		in.NonWhiteCount(raster.R(r.X, r.Y+r.H-1, r.W, 1)) +
		in.NonWhiteCount(raster.R(r.X, r.Y, 1, r.H)) +
		in.NonWhiteCount(raster.R(r.X+r.W-1, r.Y, 1, r.H))
	return float64(hit) / float64(per)
}

// checkboxScore looks for a small light square with a darker outline in the
// left third of the region — the signature of the "I'm not a robot"
// widget. A square scores its outline's non-white fraction times its
// interior's light fraction, and the best square wins. The search is exact
// but skips what cannot beat the best so far: a band of rows with no
// non-white pixel scores 0 in every square; a square whose light fraction
// is at most the best cannot exceed it, since the outline fraction is at
// most 1 and float rounding is monotone; and nothing exceeds a perfect 1.
// Every square lies inside r, so the reads skip clipping.
func checkboxScore(in *raster.Integral, r raster.Rect) float64 {
	if r.W < 30 || r.H < 14 {
		return 0
	}
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
// CAPTCHAs.
func headerScore(in *raster.Integral, r raster.Rect) float64 {
	if r.H < 20 {
		return 0
	}
	stripH := r.H / 5
	if stripH < 4 {
		stripH = 4
	}
	strip := raster.R(r.X+1, r.Y+1, r.W-2, stripH-1)
	n := strip.Intersect(in.Region).Area()
	if strip.W <= 0 || n == 0 {
		return 0
	}
	hist, _, _ := in.Stats(strip)
	best, bestC := 0, raster.White
	for c := raster.Color(0); c < raster.NumColors; c++ {
		if v := hist[c]; v > best {
			best, bestC = v, c
		}
	}
	if bestC == raster.White || bestC == raster.LightGray {
		return 0
	}
	return float64(best) / float64(n)
}
