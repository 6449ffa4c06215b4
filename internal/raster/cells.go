package raster

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Counts holds the number of pixels of each palette color in some area.
type Counts [NumColors]int32

// Dominant returns the most frequent color, the lowest palette index on a
// tie, and White when every count is zero.
func (c *Counts) Dominant() Color {
	best, bestN := White, int32(-1)
	for col, n := range c {
		if n > bestN {
			best, bestN = Color(col), n
		}
	}
	return best
}

// CellCounts lays a gw x gh grid over r (clipped to the image) and returns
// the palette counts of every cell, row-major. Cell (gx, gy) spans columns
// [r.X+gx*r.W/gw, r.X+(gx+1)*r.W/gw) and the matching rows, widened to one
// pixel where that span is empty: a region narrower or shorter than the
// grid has cells that share pixels. A pixel value outside the palette
// counts as White, the way Intensity reads it. An empty region yields
// all-zero cells.
//
// This is the one pass the perceptual hash and the visual embedding make
// over a screenshot. A run of identical consecutive rows inside one cell
// row is counted once and multiplied, and each row is counted a run of
// equal pixels at a time, so the cost follows the page's visual complexity
// rather than its area.
func (im *Image) CellCounts(r Rect, gw, gh int) []Counts {
	if gw <= 0 || gh <= 0 {
		return nil
	}
	cells := make([]Counts, gw*gh)
	im.CellCountsInto(cells, r, gw, gh)
	return cells
}

// CellCountsInto is CellCounts writing into cells, which must hold gw*gh
// zero counts: a caller that counts into an array of its own allocates
// nothing.
func (im *Image) CellCountsInto(cells []Counts, r Rect, gw, gh int) {
	r = r.Clip(im.W, im.H)
	if gw <= 0 || gh <= 0 || r.Empty() {
		return
	}
	var buf [32][2]int
	xs := buf[:0]
	for gx := 0; gx < gw; gx++ {
		x0, x1 := cellSpan(gx, r.W, gw)
		xs = append(xs, [2]int{x0, x1})
	}
	im.cellCounts(cells, r, xs, gh)
}

// CellCountsCut is CellCounts over r, clipped to the image, with the grid's
// columns given by cuts: column i spans [r.X+cuts[i], r.X+cuts[i+1]), so the
// cuts ascend strictly from 0 to the clipped width and len(cuts)-1 columns
// tile the region. Rows split as in CellCounts. Callers that need two grids
// with the same rows count once over the union of both grids' cuts and sum
// the columns into each.
func (im *Image) CellCountsCut(r Rect, cuts []int, gh int) []Counts {
	var buf [32][2]int
	xs := buf[:0]
	for i := 1; i < len(cuts); i++ {
		xs = append(xs, [2]int{cuts[i-1], cuts[i]})
	}
	if gh <= 0 || len(xs) == 0 {
		return nil
	}
	cells := make([]Counts, len(xs)*gh)
	if r = r.Clip(im.W, im.H); !r.Empty() {
		im.cellCounts(cells, r, xs, gh)
	}
	return cells
}

// cellCounts adds into cells the counts of the grid whose columns span xs,
// relative to r.X, and whose gh rows split r.H as cellSpan does. r is
// clipped and not empty.
func (im *Image) cellCounts(cells []Counts, r Rect, xs [][2]int, gh int) {
	gw := len(xs)
	pix := im.Bytes()
	line := func(y int) []byte { return pix[y*im.W+r.X : y*im.W+r.X+r.W] }
	for gy := 0; gy < gh; gy++ {
		y0, y1 := cellSpan(gy, r.H, gh)
		y0, y1 = y0+r.Y, y1+r.Y
		band := cells[gy*gw : (gy+1)*gw]
		for y := y0; y < y1; {
			row := line(y)
			m := 1
			for y+m < y1 && bytes.Equal(line(y+m), row) {
				m++
			}
			for gx, x := range xs {
				countRuns(&band[gx], row[x[0]:x[1]], int32(m))
			}
			y += m
		}
	}
}

// cellSpan returns the half-open span of cell i when n pixels are split
// into g cells, at least one pixel wide.
func cellSpan(i, n, g int) (lo, hi int) {
	lo, hi = i*n/g, (i+1)*n/g
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// countRuns adds m times the palette counts of s to c, one run of equal
// pixels at a time.
func countRuns(c *Counts, s []byte, m int32) {
	for i := 0; i < len(s); {
		p := s[i]
		j := RunEnd(s, i+1, p)
		if p >= byte(NumColors) {
			p = byte(White)
		}
		c[p] += m * int32(j-i)
		i = j
	}
}

// RunEnd returns the index of the first byte at or after i that is not p,
// or len(s), comparing eight bytes at a time.
func RunEnd(s []byte, i int, p byte) int {
	pat := uint64(p) * 0x0101010101010101
	for ; i+8 <= len(s); i += 8 {
		if d := binary.LittleEndian.Uint64(s[i:]) ^ pat; d != 0 {
			return i + bits.TrailingZeros64(d)/8
		}
	}
	for i < len(s) && s[i] == p {
		i++
	}
	return i
}

// ContentBounds returns the smallest rectangle holding every non-White
// pixel, or the empty Rect when the image is all White.
func (im *Image) ContentBounds() Rect {
	return im.ContentBoundsIn(R(0, 0, im.W, im.H))
}

// ContentBoundsIn returns the smallest rectangle holding every non-White
// pixel inside r (clipped to the image), or the empty Rect when there is
// none. Each row costs one compare of its two ends outside the bounds found
// so far; a row is scanned pixel by pixel only when it widens them.
func (im *Image) ContentBoundsIn(r Rect) Rect {
	r = r.Clip(im.W, im.H)
	if r.Empty() {
		return Rect{}
	}
	pix := im.Bytes()
	line := func(y int) []byte { return pix[y*im.W+r.X : y*im.W+r.X+r.W] }
	top := r.Y
	for top < r.Y+r.H && allWhite(line(top)) {
		top++
	}
	if top == r.Y+r.H {
		return Rect{}
	}
	bottom := r.Y + r.H - 1
	for allWhite(line(bottom)) {
		bottom--
	}
	minX, maxX := r.W, -1
	for y := top; y <= bottom; y++ {
		row := line(y)
		if !allWhite(row[:minX]) {
			minX = 0
			for row[minX] == byte(White) {
				minX++
			}
		}
		if !allWhite(row[maxX+1:]) {
			maxX = r.W - 1
			for row[maxX] == byte(White) {
				maxX--
			}
		}
	}
	return Rect{r.X + minX, top, maxX - minX + 1, bottom - top + 1}
}

// whiteRow is a run of White pixels to compare rows against; White is the
// zero Color.
var whiteRow [1024]byte

func allWhite(row []byte) bool {
	for len(row) > len(whiteRow) {
		if !bytes.Equal(row[:len(whiteRow)], whiteRow[:]) {
			return false
		}
		row = row[len(whiteRow):]
	}
	return bytes.Equal(row, whiteRow[:len(row)])
}

// Bytes views the image's pixels as bytes (Color is a uint8), so rows
// compare with bytes.Equal and scan a word at a time. Writes through the
// view change the image.
func (im *Image) Bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.SliceData(im.Pix)), len(im.Pix))
}
