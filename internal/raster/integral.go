package raster

import "sync"

// Integral is a summed-area table (integral image) over a rectangular
// region of an Image, turning the per-window statistics the vision layer
// queries repeatedly — non-background coverage, ink coverage, and light
// coverage — into O(1) lookups per window.
//
// An Integral can cover the whole image (NewIntegral) or just one window
// of it (NewIntegralRegion). The detector builds one Integral per proposal,
// over the box already tightened to its content, and shares it across the
// grid/border scores (one query per row, column, or strip) and the checkbox
// search (one query per row band, then the interior's light count and the
// four outline strips of the candidate squares that could still win, read
// unclipped with NonWhiteIn and LightIn). Screenshots are mostly
// background, so region tables touch far fewer pixels than a whole-page
// table would.
//
// Only the three statistics that are queried many times per window get
// prefix-sum lanes; one-shot whole-window statistics (the color histogram
// and the transition counts) are served by Stats, a single streaming pass
// over the region's pixels, which is cheaper than maintaining a lane per
// palette color.
//
// Storage is a single (W+1) x (H+1) x 3 prefix-sum grid, interleaved by
// lane so the build is one streaming pass. Tables are recycled through a
// sync.Pool: call Release when done with an Integral to make its buffer
// available for reuse and keep steady-state detection allocation-free.
type Integral struct {
	// Region is the pixel rectangle the table covers (clipped to the
	// image). Queries are clipped to it.
	Region Rect

	im   *Image
	data []int32
}

// Lane positions inside the interleaved prefix-sum grid.
const (
	laneNonWhite = 0
	laneInk      = 1
	laneLight    = 2
	intLanes     = 3
)

var integralPool = sync.Pool{New: func() any { return new(Integral) }}

// NewIntegral builds the summed-area table for the whole image.
func NewIntegral(im *Image) *Integral {
	return NewIntegralRegion(im, R(0, 0, im.W, im.H))
}

// NewIntegralRegion builds a summed-area table covering only r (clipped to
// the image), in one O(r.Area()) pass. The table comes from a pool; pass it
// to Release when done to recycle its buffer.
func NewIntegralRegion(im *Image, r Rect) *Integral {
	r = r.Clip(im.W, im.H)
	in := integralPool.Get().(*Integral)
	in.Region = r
	in.im = im
	stride := (r.W + 1) * intLanes
	n := stride * (r.H + 1)
	if cap(in.data) < n {
		in.data = make([]int32, n)
	} else {
		// The build pass writes every interior cell but relies on the top
		// row and left column staying zero; clear just those on reuse.
		in.data = in.data[:n]
		for i := 0; i < stride; i++ {
			in.data[i] = 0
		}
		for y := 1; y <= r.H; y++ {
			base := y * stride
			in.data[base] = 0
			in.data[base+1] = 0
			in.data[base+2] = 0
		}
	}
	if r.Empty() {
		return in
	}
	d := in.data
	for iy := 1; iy <= r.H; iy++ {
		y := r.Y + iy - 1
		row := im.Pix[y*im.W+r.X : y*im.W+r.X+r.W]
		var nw, ink, light int32
		rowBase := iy * stride
		prevBase := rowBase - stride
		for x, px := range row {
			if px < NumColors {
				iv := intensity[px]
				if px != White {
					nw++
				}
				if iv < 128 {
					ink++
				}
				if iv >= 200 {
					light++
				}
			} else {
				light++ // out-of-palette reads as blank (intensity 255)
			}
			o := rowBase + (x+1)*intLanes
			p := prevBase + (x+1)*intLanes
			d[o] = d[p] + nw
			d[o+1] = d[p+1] + ink
			d[o+2] = d[p+2] + light
		}
	}
	return in
}

// Release returns the table's buffer to the pool. The Integral must not be
// used afterwards. Calling Release is optional — an unreleased table is
// simply collected by the GC.
func (in *Integral) Release() {
	in.im = nil
	integralPool.Put(in)
}

// sumLane evaluates one lane over r, which must already be clipped to the
// covered region.
func (in *Integral) sumLane(lane int, r Rect) int {
	s := (in.Region.W + 1) * intLanes
	x0, y0 := r.X-in.Region.X, r.Y-in.Region.Y
	x1, y1 := x0+r.W, y0+r.H
	d := in.data
	return int(d[y1*s+x1*intLanes+lane] - d[y0*s+x1*intLanes+lane] -
		d[y1*s+x0*intLanes+lane] + d[y0*s+x0*intLanes+lane])
}

// NonWhiteCount returns the number of non-background pixels inside r.
func (in *Integral) NonWhiteCount(r Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.sumLane(laneNonWhite, r)
}

// InkCount returns the number of dark pixels (Intensity < 128) inside r —
// the OCR "ink" rule.
func (in *Integral) InkCount(r Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.sumLane(laneInk, r)
}

// NonWhiteIn is NonWhiteCount without the clipping, for inner loops whose
// windows are known to lie inside Region. A window reaching outside Region
// reads wrong counts or panics.
func (in *Integral) NonWhiteIn(r Rect) int { return in.sumLane(laneNonWhite, r) }

// LightIn returns the number of light pixels (Intensity >= 200, the white
// background included) inside r, which must lie inside Region: like
// NonWhiteIn it does not clip.
func (in *Integral) LightIn(r Rect) int { return in.sumLane(laneLight, r) }

// Stats scans r directly (one O(r.Area()) pass over the source image) and
// returns its per-color histogram and the counts of horizontally and
// vertically adjacent pixel pairs inside r whose colors differ. These are
// whole-window statistics computed once per feature vector, so a streaming
// scan beats carrying a prefix-sum lane per palette color.
func (in *Integral) Stats(r Rect) (hist [NumColors]int, hTrans, vTrans int) {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return
	}
	im := in.im
	for y := r.Y; y < r.Y+r.H; y++ {
		row := im.Pix[y*im.W+r.X : y*im.W+r.X+r.W]
		var prevRow []Color
		if y > r.Y {
			prevRow = im.Pix[(y-1)*im.W+r.X : (y-1)*im.W+r.X+r.W]
		}
		for x, px := range row {
			if px < NumColors {
				hist[px]++
			}
			if x > 0 && px != row[x-1] {
				hTrans++
			}
			if prevRow != nil && px != prevRow[x] {
				vTrans++
			}
		}
	}
	return
}
