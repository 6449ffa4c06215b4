// Package raster implements the pixel model used as the system's
// "screenshot" substrate. A raster Image is a palette-indexed pixel grid;
// the renderer draws DOM content into it, the OCR engine reads glyphs back
// out of it, the object detector scans it for buttons/logos/CAPTCHAs, and
// the perceptual hash summarizes it. It replaces the PNG screenshots the
// paper's Puppeteer crawler captures, preserving every downstream code path
// (OCR, detection, visual similarity) without an image codec dependency.
package raster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"unsafe"
)

// Color is a palette index. The palette is small on purpose: visual analysis
// in this system cares about layout and coarse color distribution, not
// shading.
type Color uint8

// The palette.
const (
	White Color = iota
	Black
	Gray
	LightGray
	Red
	Green
	Blue
	Yellow
	Orange
	Purple
	Teal
	Navy
	Maroon
	Olive
	Pink
	Brown
	NumColors // sentinel: number of palette entries
)

var colorNames = [...]string{
	"white", "black", "gray", "lightgray", "red", "green", "blue", "yellow",
	"orange", "purple", "teal", "navy", "maroon", "olive", "pink", "brown",
}

// String returns the palette name of c.
func (c Color) String() string {
	if int(c) < len(colorNames) {
		return colorNames[c]
	}
	return fmt.Sprintf("color(%d)", uint8(c))
}

// ParseColor returns the palette color with the given name, defaulting to
// Black for unknown names.
func ParseColor(name string) Color {
	name = strings.ToLower(strings.TrimSpace(name))
	for i, n := range colorNames {
		if n == name {
			return Color(i)
		}
	}
	return Black
}

// Image is a W x H grid of palette pixels. The zero value is an empty image;
// create usable images with New.
type Image struct {
	W, H int
	Pix  []Color // row-major, len == W*H
}

// New returns a W x H image filled with bg.
func New(w, h int, bg Color) *Image {
	img := &Image{W: w, H: h, Pix: make([]Color, w*h)}
	if bg != White {
		fill(img.Pix, bg)
	}
	return img
}

// fill sets every pixel of px to c: a clear for White, otherwise eight
// pixels a word at a time up to 64, then doubling copies of what is
// already filled. It is the one loop behind New, Get, Fill and painting
// runs.
func fill(px []Color, c Color) {
	if c == White {
		clear(px)
		return
	}
	b := unsafe.Slice((*byte)(unsafe.SliceData(px)), len(px))
	pat := uint64(c) * 0x0101010101010101
	n := min(len(b), 64)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], pat)
	}
	for ; i < n; i++ {
		b[i] = byte(c)
	}
	for ; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// imagePool recycles pixel buffers between Get and Release. Screenshots are
// by far the largest per-session allocation (a full-page rendering is up to
// W x 4000 pixels, re-allocated on every DOM mutation), so the renderer
// draws into pooled images and the browser releases them when a rendering
// is invalidated.
var imagePool = sync.Pool{New: func() any { return new(Image) }}

// Get returns a W x H image filled with bg, drawing its pixel buffer from
// the pool when one of sufficient capacity is available. The caller owns
// the image until Release; an image that is never released is simply
// garbage-collected. Contents are identical to New's.
func Get(w, h int, bg Color) *Image {
	im := imagePool.Get().(*Image)
	if cap(im.Pix) < w*h {
		im.Pix = make([]Color, w*h)
	}
	im.W, im.H = w, h
	im.Pix = im.Pix[:w*h]
	fill(im.Pix, bg)
	return im
}

// Release returns the image's buffer to the pool. The image must not be
// read or written afterwards, and no live reference to it (or a view of its
// pixels) may remain. Calling Release is optional and safe only for images
// obtained from Get or New that the caller fully owns.
func (im *Image) Release() {
	if im == nil || im.Pix == nil {
		return
	}
	imagePool.Put(im)
}

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool {
	return x >= 0 && y >= 0 && x < im.W && y < im.H
}

// At returns the pixel at (x, y); out-of-bounds reads return White.
func (im *Image) At(x, y int) Color {
	if !im.In(x, y) {
		return White
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, c Color) {
	if im.In(x, y) {
		im.Pix[y*im.W+x] = c
	}
}

// Fill sets every pixel in the rectangle to c. The rectangle is clipped to
// the image.
func (im *Image) Fill(r Rect, c Color) {
	r = r.Clip(im.W, im.H)
	if r.Empty() {
		return // a rectangle off the right edge keeps an X past the image
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		fill(im.Pix[y*im.W+r.X:][:r.W], c)
	}
}

// Outline draws a 1-pixel border just inside the rectangle.
func (im *Image) Outline(r Rect, c Color) {
	for x := r.X; x < r.X+r.W; x++ {
		im.Set(x, r.Y, c)
		im.Set(x, r.Y+r.H-1, c)
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		im.Set(r.X, y, c)
		im.Set(r.X+r.W-1, y, c)
	}
}

// Blit copies src onto im with its top-left corner at (x, y), skipping
// pixels that fall outside im. The destination is clipped once and each
// row is copied whole.
func (im *Image) Blit(src *Image, x, y int) {
	dst := R(x, y, src.W, src.H).Clip(im.W, im.H)
	if dst.Empty() {
		return
	}
	sx, sy := dst.X-x, dst.Y-y
	for row := 0; row < dst.H; row++ {
		s := (sy+row)*src.W + sx
		copy(im.Pix[(dst.Y+row)*im.W+dst.X:][:dst.W], src.Pix[s:s+dst.W])
	}
}

// PaintAt is Blit with the receiver as the source, so a decoded Image
// paints wherever Runs do.
func (im *Image) PaintAt(dst *Image, x, y int) { dst.Blit(im, x, y) }

// Painter is an image the renderer can paint: a decoded Image or the
// validated Runs of one. The union keeps a nil check on a value of the
// type parameter legal.
type Painter interface {
	*Image | *Runs
	PaintAt(dst *Image, x, y int)
}

// Sub returns a copy of the pixels inside r (clipped). The result is a new
// image; mutating it does not affect im.
func (im *Image) Sub(r Rect) *Image {
	r = r.Clip(im.W, im.H)
	out := New(r.W, r.H, White)
	if r.Empty() {
		// A region off the right edge keeps an X past the image; there is
		// nothing to copy.
		return out
	}
	for y := 0; y < r.H; y++ {
		copy(out.Pix[y*out.W:(y+1)*out.W], im.Pix[(r.Y+y)*im.W+r.X:(r.Y+y)*im.W+r.X+r.W])
	}
	return out
}

// Clone returns a deep copy of im.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]Color, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Grayscale intensity per palette color, 0 (black) .. 255 (white), used by
// perceptual hashing. Values are coarse by design.
var intensity = [NumColors]int{
	255, 0, 128, 200, 100, 110, 90, 220, 160, 80, 120, 40, 60, 100, 210, 70,
}

// ColorIntensity returns the grayscale intensity of a palette color.
// Out-of-palette values read as blank (255).
func ColorIntensity(c Color) int {
	if c < NumColors {
		return intensity[c]
	}
	return 255
}

// Intensity returns the grayscale intensity of the pixel at (x, y).
func (im *Image) Intensity(x, y int) int {
	c := im.At(x, y)
	if c < NumColors {
		return intensity[c]
	}
	return 255
}

// Rect is an axis-aligned rectangle with top-left (X, Y) and size (W, H).
type Rect struct {
	X, Y, W, H int
}

// R is shorthand for constructing a Rect.
func R(x, y, w, h int) Rect { return Rect{x, y, w, h} }

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Clip returns r intersected with the rectangle (0, 0, w, h).
func (r Rect) Clip(w, h int) Rect {
	if r.X < 0 {
		r.W += r.X
		r.X = 0
	}
	if r.Y < 0 {
		r.H += r.Y
		r.Y = 0
	}
	if r.X+r.W > w {
		r.W = w - r.X
	}
	if r.Y+r.H > h {
		r.H = h - r.Y
	}
	if r.W < 0 {
		r.W = 0
	}
	if r.H < 0 {
		r.H = 0
	}
	return r
}

// Intersects reports whether r and o overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// Intersect returns the overlapping region of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x0 := max(r.X, o.X)
	y0 := max(r.Y, o.Y)
	x1 := min(r.X+r.W, o.X+o.W)
	y1 := min(r.Y+r.H, o.Y+o.H)
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	x0 := min(r.X, o.X)
	y0 := min(r.Y, o.Y)
	x1 := max(r.X+r.W, o.X+o.W)
	y1 := max(r.Y+r.H, o.Y+o.H)
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Area returns the rectangle's area, 0 when empty.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// IoU returns intersection-over-union of two rectangles, the standard object
// detection overlap metric.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(r.Area()+o.Area()-inter)
}

// CenterX returns the x coordinate of the rectangle's center.
func (r Rect) CenterX() int { return r.X + r.W/2 }

// CenterY returns the y coordinate of the rectangle's center.
func (r Rect) CenterY() int { return r.Y + r.H/2 }

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// String renders the rectangle for logs and error messages.
func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d %dx%d)", r.X, r.Y, r.W, r.H)
}
