package raster

import "sync"

// Integral is a summed-area table (integral image) over a rectangular
// region of an Image, with two lanes — non-background pixels and light
// pixels — so that any window's counts are O(1) lookups.
//
// The detector's checkbox search is its one caller: it scores many small
// candidate squares in the left third of a proposal box, reading each row
// band's non-white count, then the interior's light count and the four
// outline strips of the squares that could still win. Every other feature
// reads whole rows, columns or the whole box, which one streaming pass over
// the box serves without a table.
//
// Storage is a single (W+1) x (H+1) x 2 prefix-sum grid, interleaved by
// lane so the build is one streaming pass. Tables are recycled through a
// sync.Pool: call Release when done with an Integral to make its buffer
// available for reuse and keep steady-state detection allocation-free.
type Integral struct {
	// Region is the pixel rectangle the table covers (clipped to the
	// image). Windows read from it must lie inside it.
	Region Rect

	data []int32
}

// Lane positions inside the interleaved prefix-sum grid.
const (
	laneNonWhite = 0
	laneLight    = 1
	intLanes     = 2
)

var integralPool = sync.Pool{New: func() any { return new(Integral) }}

// nonWhiteLight holds each pixel byte's increments of the two lanes. A
// byte outside the palette reads as blank (intensity 255): light, and not
// non-white.
var nonWhiteLight = func() (t [256][2]uint8) {
	for px := range t {
		if px < int(NumColors) && px != int(White) {
			t[px][0] = 1
		}
		if ColorIntensity(Color(px)) >= 200 {
			t[px][1] = 1
		}
	}
	return t
}()

// NewIntegralRegion builds a summed-area table covering only r (clipped to
// the image), in one O(r.Area()) pass. The table comes from a pool; pass it
// to Release when done to recycle its buffer.
func NewIntegralRegion(im *Image, r Rect) *Integral {
	r = r.Clip(im.W, im.H)
	in := integralPool.Get().(*Integral)
	in.Region = r
	stride := (r.W + 1) * intLanes
	n := stride * (r.H + 1)
	if cap(in.data) < n {
		in.data = make([]int32, n)
	} else {
		// The build pass writes every interior cell but relies on the top
		// row and left column staying zero; clear just those on reuse.
		in.data = in.data[:n]
		clear(in.data[:stride])
		for y := 1; y <= r.H; y++ {
			base := y * stride
			in.data[base] = 0
			in.data[base+1] = 0
		}
	}
	if r.Empty() {
		return in
	}
	d := in.data
	for iy := 1; iy <= r.H; iy++ {
		y := r.Y + iy - 1
		row := im.Pix[y*im.W+r.X : y*im.W+r.X+r.W]
		var nw, light int32
		rowBase := iy * stride
		prevBase := rowBase - stride
		for x, px := range row {
			nw += int32(nonWhiteLight[px][0])
			light += int32(nonWhiteLight[px][1])
			o := rowBase + (x+1)*intLanes
			p := prevBase + (x+1)*intLanes
			d[o] = d[p] + nw
			d[o+1] = d[p+1] + light
		}
	}
	return in
}

// Release returns the table's buffer to the pool. The Integral must not be
// used afterwards. Calling Release is optional — an unreleased table is
// simply collected by the GC.
func (in *Integral) Release() {
	integralPool.Put(in)
}

// sumLane evaluates one lane over r, which must lie inside the covered
// region.
func (in *Integral) sumLane(lane int, r Rect) int {
	s := (in.Region.W + 1) * intLanes
	x0, y0 := r.X-in.Region.X, r.Y-in.Region.Y
	x1, y1 := x0+r.W, y0+r.H
	d := in.data
	return int(d[y1*s+x1*intLanes+lane] - d[y0*s+x1*intLanes+lane] -
		d[y1*s+x0*intLanes+lane] + d[y0*s+x0*intLanes+lane])
}

// NonWhiteIn returns the number of non-background pixels (palette colors
// other than White) inside r, which must lie inside Region: the read does
// not clip, and a window reaching outside Region reads wrong counts or
// panics.
func (in *Integral) NonWhiteIn(r Rect) int { return in.sumLane(laneNonWhite, r) }

// LightIn returns the number of light pixels (Intensity >= 200, the white
// background included) inside r, which must lie inside Region: like
// NonWhiteIn it does not clip.
func (in *Integral) LightIn(r Rect) int { return in.sumLane(laneLight, r) }
