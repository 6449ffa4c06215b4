package visualphish

import (
	"testing"

	"repro/internal/browser"
	"repro/internal/pagegen"
	"repro/internal/phash"
	"repro/internal/raster"
	"repro/internal/sitegen"
	"repro/internal/vision"
)

// The per-pixel reference: how the perceptual hash and the embedding were
// computed before both read raster.CellCounts — a cropped copy, rescanned
// once for the hash, once for the thumbnail and once for the histogram.

func refPHash(img *raster.Image) phash.Hash {
	const gridW, gridH = 17, 16
	var grid [gridH][gridW]int
	if img.W == 0 || img.H == 0 {
		return phash.Hash{}
	}
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			x0, x1 := gx*img.W/gridW, (gx+1)*img.W/gridW
			y0, y1 := gy*img.H/gridH, (gy+1)*img.H/gridH
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			sum, n := 0, 0
			for y := y0; y < y1 && y < img.H; y++ {
				for x := x0; x < x1 && x < img.W; x++ {
					sum += img.Intensity(x, y)
					n++
				}
			}
			if n > 0 {
				grid[gy][gx] = sum / n
			}
		}
	}
	var h phash.Hash
	bit := 0
	for gy := 0; gy < gridH; gy += 2 {
		for gx := 0; gx < gridW-1; gx++ {
			if grid[gy][gx] > grid[gy][gx+1] {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	sum, n := 0, 0
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			sum += grid[gy][gx]
			n++
		}
	}
	mean := sum / n
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < 8; gx++ {
			if grid[gy][gx*2] > mean {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	return h
}

func refDownsample(im *raster.Image, w, h int) *raster.Image {
	out := raster.New(w, h, raster.White)
	if im.W == 0 || im.H == 0 {
		return out
	}
	for oy := 0; oy < h; oy++ {
		for ox := 0; ox < w; ox++ {
			x0, x1 := ox*im.W/w, (ox+1)*im.W/w
			y0, y1 := oy*im.H/h, (oy+1)*im.H/h
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			var counts [raster.NumColors]int
			for y := y0; y < y1 && y < im.H; y++ {
				for x := x0; x < x1 && x < im.W; x++ {
					counts[im.At(x, y)]++
				}
			}
			best, bestN := raster.White, -1
			for c, n := range counts {
				if n > bestN {
					best, bestN = raster.Color(c), n
				}
			}
			out.Set(ox, oy, best)
		}
	}
	return out
}

func refHistogram(im *raster.Image) [raster.NumColors]int {
	var h [raster.NumColors]int
	for _, p := range im.Pix {
		if p < raster.NumColors {
			h[p]++
		}
	}
	return h
}

// refCropContent returns the sub-image bounded by the non-white content, or
// a copy of the image when it is all white.
func refCropContent(img *raster.Image) *raster.Image {
	minX, minY, maxX, maxY := img.W, img.H, -1, -1
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			if img.At(x, y) != raster.White {
				minX, minY = min(minX, x), min(minY, y)
				maxX, maxY = max(maxX, x), max(maxY, y)
			}
		}
	}
	if maxX < 0 {
		return img.Clone()
	}
	return img.Sub(raster.R(minX, minY, maxX-minX+1, maxY-minY+1))
}

func refEmbed(img *raster.Image) Embedding {
	e := Embedding{PHash: refPHash(img), Thumb: refDownsample(img, thumbW, thumbH).Pix}
	hist := refHistogram(img)
	total := 0
	for _, n := range hist {
		total += n
	}
	if total > 0 {
		for c, n := range hist {
			e.Hist[c] = float64(n) / float64(total)
		}
	}
	return e
}

func sameEmbedding(a, b Embedding) bool {
	if a.PHash != b.PHash || a.Hist != b.Hist || len(a.Thumb) != len(b.Thumb) {
		return false
	}
	for i := range a.Thumb {
		if a.Thumb[i] != b.Thumb[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference asserts that Compute, Embed and EmbedCropped of img
// and ComputeRegion over each region equal the per-pixel reference.
func checkAgainstReference(t *testing.T, name string, img *raster.Image, regions ...raster.Rect) {
	t.Helper()
	if got, want := phash.Compute(img), refPHash(img); got != want {
		t.Errorf("%s: Compute = %s, want %s", name, got, want)
	}
	if got, want := Embed(img), refEmbed(img); !sameEmbedding(got, want) {
		t.Errorf("%s: Embed = %+v, want %+v", name, got, want)
	}
	if got, want := EmbedCropped(img), refEmbed(refCropContent(img)); !sameEmbedding(got, want) {
		t.Errorf("%s: EmbedCropped = %+v, want %+v", name, got, want)
	}
	for _, r := range regions {
		if got, want := phash.ComputeRegion(img, r), refPHash(img.Sub(r)); got != want {
			t.Errorf("%s: ComputeRegion(%v) = %s, want %s", name, r, got, want)
		}
	}
}

// TestMatchesReferenceOnCorpus checks every landing page of a seeded corpus,
// rendered as the crawler sees it, and every detection crop on it.
func TestMatchesReferenceOnCorpus(t *testing.T) {
	det, err := vision.Train(pagegen.GenerateSet(200, 1, pagegen.Config{}), 2)
	if err != nil {
		t.Fatal(err)
	}
	crops := 0
	for _, s := range sitegen.Generate(sitegen.ScaledParams(60, 42)).Sites {
		shot := sitegen.RenderPage(s, s.Pages[0].HTML, browser.ViewportWidth)
		var boxes []raster.Rect
		for _, d := range det.Detect(shot) {
			boxes = append(boxes, d.Box)
		}
		crops += len(boxes)
		checkAgainstReference(t, s.Host, shot, boxes...)
	}
	if crops == 0 {
		t.Error("no detections on the corpus: the crop comparison checked nothing")
	}
}

// TestMatchesReferenceOnEdgeImages covers sizes around the 17x16 and 16x16
// grids, where cells of the old loops overlapped, and regions that touch or
// cross the image edges.
func TestMatchesReferenceOnEdgeImages(t *testing.T) {
	page := raster.New(90, 70, raster.White)
	page.Fill(raster.R(0, 0, 90, 8), raster.Navy)
	page.DrawString("SIGN IN", 10, 20, raster.Black)
	page.Outline(raster.R(10, 40, 60, 12), raster.Gray)
	page.Fill(raster.R(85, 60, 5, 10), raster.Red)
	stripes := raster.New(17, 16, raster.White)
	for y := 0; y < 16; y += 3 {
		stripes.Fill(raster.R(0, y, 17, 1), raster.Color(1+y%15))
	}
	images := map[string]*raster.Image{
		"1x1":        raster.New(1, 1, raster.Black),
		"16x15":      raster.New(16, 15, raster.Teal),
		"17x16":      stripes,
		"all-white":  raster.New(40, 30, raster.White),
		"empty":      raster.New(0, 0, raster.White),
		"page":       page,
		"dot":        raster.New(50, 50, raster.White),
		"thin-strip": raster.New(3, 40, raster.Olive),
	}
	images["dot"].Set(20, 30, raster.Maroon)
	for name, img := range images {
		w, h := img.W, img.H
		checkAgainstReference(t, name, img,
			raster.R(0, 0, w, h),
			raster.R(0, 0, w/2+1, h/2+1),
			raster.R(w/2, h/2, w, h),
			raster.R(0, h-1, w, 1),
			raster.R(w-1, 0, 1, h),
			raster.R(-4, -4, w+8, h+8),
			raster.R(w, 0, 5, h),
		)
	}
}
