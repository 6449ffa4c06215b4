package raster

import (
	"math/rand"
	"testing"
)

// refCellCounts is the per-pixel reference for CellCounts: the block loops
// the perceptual hash and Downsample ran over a cropped copy, reading each
// pixel with At.
func refCellCounts(im *Image, r Rect, gw, gh int) []Counts {
	sub := im.Sub(r)
	cells := make([]Counts, gw*gh)
	if sub.W == 0 || sub.H == 0 {
		return cells
	}
	for gy := 0; gy < gh; gy++ {
		for gx := 0; gx < gw; gx++ {
			x0, x1 := gx*sub.W/gw, (gx+1)*sub.W/gw
			y0, y1 := gy*sub.H/gh, (gy+1)*sub.H/gh
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			for y := y0; y < y1 && y < sub.H; y++ {
				for x := x0; x < x1 && x < sub.W; x++ {
					c := sub.At(x, y)
					if c >= NumColors {
						c = White
					}
					cells[gy*gw+gx][c]++
				}
			}
		}
	}
	return cells
}

// refDownsample is the per-pixel thumbnail the visual embedding used: each
// output pixel is the dominant color of its source block.
func refDownsample(im *Image, w, h int) *Image {
	out := New(w, h, White)
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
			var counts [NumColors]int
			for y := y0; y < y1 && y < im.H; y++ {
				for x := x0; x < x1 && x < im.W; x++ {
					counts[im.At(x, y)]++
				}
			}
			best, bestN := White, -1
			for c, n := range counts {
				if n > bestN {
					best, bestN = Color(c), n
				}
			}
			out.Set(ox, oy, best)
		}
	}
	return out
}

// refContentBounds is the full scan the content crop used.
func refContentBounds(im *Image) Rect {
	minX, minY, maxX, maxY := im.W, im.H, -1, -1
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			if im.At(x, y) != White {
				minX, minY = min(minX, x), min(minY, y)
				maxX, maxY = max(maxX, x), max(maxY, y)
			}
		}
	}
	if maxX < 0 {
		return Rect{}
	}
	return R(minX, minY, maxX-minX+1, maxY-minY+1)
}

// checkCells compares CellCounts, its cut form, the thumbnail built from
// it, ContentBounds and ContentBoundsIn(r) with the per-pixel references.
func checkCells(t *testing.T, name string, im *Image, r Rect, gw, gh int) {
	t.Helper()
	got, want := im.CellCounts(r, gw, gh), refCellCounts(im, r, gw, gh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %dx%d image, CellCounts(%v, %d, %d) cell %d = %v, want %v", name, im.W, im.H, r, gw, gh, i, got[i], want[i])
		}
	}
	if c := r.Clip(im.W, im.H); c.W >= gw {
		// Cut at the grid's own bounds, the cut form counts the same cells.
		cuts := make([]int, gw+1)
		for i := range cuts {
			cuts[i] = i * c.W / gw
		}
		cut := im.CellCountsCut(r, cuts, gh)
		for i := range want {
			if cut[i] != want[i] {
				t.Fatalf("%s %dx%d image, CellCountsCut(%v, %v, %d) cell %d = %v, want %v", name, im.W, im.H, r, cuts, gh, i, cut[i], want[i])
			}
		}
	}
	if got, want := im.ContentBounds(), refContentBounds(im); got != want {
		t.Fatalf("%s %dx%d image, ContentBounds = %v, want %v", name, im.W, im.H, got, want)
	}
	wantIn := refContentBounds(im.Sub(r))
	if c := r.Clip(im.W, im.H); !wantIn.Empty() {
		wantIn.X, wantIn.Y = wantIn.X+c.X, wantIn.Y+c.Y
	}
	if got := im.ContentBoundsIn(r); got != wantIn {
		t.Fatalf("%s %dx%d image, ContentBoundsIn(%v) = %v, want %v", name, im.W, im.H, r, got, wantIn)
	}
	for _, p := range im.Pix {
		if p >= NumColors {
			return // the reference thumbnail indexes its counts by color
		}
	}
	th := refDownsample(im.Sub(r), gw, gh)
	for i := range got {
		if c := got[i].Dominant(); c != th.Pix[i] {
			t.Fatalf("%s %dx%d image, region %v: thumbnail cell %d = %v, want %v", name, im.W, im.H, r, i, c, th.Pix[i])
		}
	}
}

func TestCellCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	page := New(64, 48, White)
	page.Fill(R(0, 0, 64, 6), Navy)
	page.DrawString("LOGIN", 8, 12, Black)
	page.Outline(R(8, 24, 40, 9), Gray)
	page.Fill(R(8, 38, 20, 8), Red)
	corner := New(30, 20, White)
	corner.Set(29, 19, Black)
	images := map[string]*Image{
		"1x1":       New(1, 1, Black),
		"16x15":     randomImage(rng, 16, 15),
		"17x16":     randomImage(rng, 17, 16),
		"all-white": New(40, 30, White),
		"page":      page,
		"random":    randomImage(rng, 53, 41),
		"corner":    corner,
	}
	grids := [][2]int{{17, 16}, {16, 16}, {1, 1}, {3, 5}, {40, 2}}
	for name, im := range images {
		w, h := im.W, im.H
		regions := []Rect{
			R(0, 0, w, h),         // whole image
			R(0, 0, w/2+1, h/2+1), // top-left corner
			R(w/2, h/2, w, h),     // bottom-right, clipped
			R(0, h-1, w, 1),       // bottom edge row
			R(w-1, 0, 1, h),       // right edge column
			R(-5, -5, w+10, h+10), // hangs off every edge
			R(w/4, h/4, w/2, h/2), // interior
			R(w, h, 4, 4),         // outside: empty
		}
		for _, r := range regions {
			for _, g := range grids {
				checkCells(t, name, im, r, g[0], g[1])
			}
		}
	}
}

func TestCellCountsFoldsOutOfPaletteIntoWhite(t *testing.T) {
	im := New(4, 1, Red)
	im.Pix[1], im.Pix[2] = 200, NumColors
	c := im.CellCounts(R(0, 0, 4, 1), 1, 1)[0]
	if c[Red] != 2 || c[White] != 2 {
		t.Errorf("counts = %v, want 2 red and 2 white", c)
	}
	if b := im.ContentBounds(); b != R(0, 0, 4, 1) {
		t.Errorf("ContentBounds = %v, want the whole row", b)
	}
}

// FuzzCellCounts checks CellCounts and the content bounds against the per-pixel
// references on images up to 64x64. The pixels repeat each data byte k
// times and each row rr times, so runs and identical rows are common.
func FuzzCellCounts(f *testing.F) {
	f.Add(uint8(17), uint8(16), []byte{0, 1, 2, 0}, uint8(3), uint8(1), int8(0), int8(0), int8(17), int8(16), uint8(17), uint8(16))
	f.Add(uint8(64), uint8(64), []byte{0, 0, 0, 11, 4}, uint8(7), uint8(5), int8(-3), int8(60), int8(70), int8(9), uint8(16), uint8(16))
	f.Add(uint8(1), uint8(1), []byte{9}, uint8(0), uint8(0), int8(0), int8(0), int8(1), int8(1), uint8(17), uint8(16))
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte, k, rr uint8, rx, ry, rw, rh int8, gw, gh uint8) {
		im := New(int(w)%65, int(h)%65, White)
		if len(data) > 0 {
			run, rows := int(k)%8+1, int(rr)%8+1
			for y := 0; y < im.H; y++ {
				for x := 0; x < im.W; x++ {
					// Bytes 16..19 are outside the palette.
					im.Pix[y*im.W+x] = Color(data[((y/rows)*im.W+x)/run%len(data)] % 20)
				}
			}
		}
		checkCells(t, "fuzz", im, R(int(rx), int(ry), int(rw), int(rh)), int(gw)%20+1, int(gh)%20+1)
	})
}
