package vision

import (
	"slices"

	"repro/internal/raster"
)

// Scan is what one Detect pass learned about an image, kept so that a later
// image differing from it only inside a few outlined boxes can be detected
// without repeating the pass: every component of occupied cells with its
// cell bounds and the position of its first cell, its content box, and,
// for each proposal Detect scored, its class and confidence or a mark that
// it cannot be emitted. A Scan is never written after DetectScan returns
// it, so concurrent Rescans may share one.
type Scan struct {
	d     *Detector
	w, h  int
	comps []scanComp
}

// scanComp is one component of a scan.
type scanComp struct {
	cells cellBox // bounds in cells, inclusive
	c0    int32   // column of the first cell, which lies in row cells.y0
	state int32   // unscored, dropped or emitted
	box   raster.Rect
	class string // emitted only
	conf  float64
}

// Scoring states of a component's content box.
const (
	unscored = iota // not scored: not a proposal, or past the proposal cap
	dropped         // cannot be emitted as any class
	emitted         // a detection of class with confidence conf
)

// DetectScan is Detect that also returns the scan of img, for Rescan.
func (d *Detector) DetectScan(img *raster.Image) ([]Detection, *Scan) {
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	comps := s.components(img)
	s.order = proposalOrder(s.order[:0], comps, img.W*img.H)
	dets := d.emit(img, comps, s.order, anyClass)
	return dets, &Scan{d: d, w: img.W, h: img.H, comps: slices.Clone(comps)}
}

// Rescan returns Detect(img) given the scan of an image that equals img at
// every pixel outside holes. Each hole is the interior of a box whose
// one-pixel outline lies inside img and holds no White pixel; the outlined
// boxes must not overlap. When they do, or an outline is broken, or scan
// came from another detector or an image of another size, Rescan runs
// Detect.
//
// Every cell holding an outline pixel is occupied in both images, and the
// cells wholly inside a hole (its inner cells) touch no cell but the inner
// and outline cells of that hole. So the components that reach outside the
// holes keep their cell bounds and their order in both images: an
// outline's cells bound every inner cell joined to them. Their content
// boxes, the bounds of the non-White pixels in their cell boxes, stay too.
// A cell box that meets a hole either holds the hole's whole outlined box,
// or belongs to a component with no cell in that box; then, where the cell
// box reaches into the hole, the outline pixels inside the cell box already
// span it. Only islands, the components of inner cells joined to no
// outline, change: Rescan drops the scan's islands, labels img's, and
// re-scores the content boxes that meet a hole. The proposal sort, cap and
// suppression then run as in Detect.
func (d *Detector) Rescan(scan *Scan, img *raster.Image, holes []raster.Rect) []Detection {
	if scan == nil || scan.d != d || scan.w != img.W || scan.h != img.H || !outlined(img, holes) {
		return d.Detect(img)
	}
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	inner := s.inner[:0]
	for _, h := range holes {
		inner = append(inner, innerCells(h))
	}
	s.inner = inner
	islands := s.islands(img)
	comps := s.comps[:0]
	next := 0 // the next island to place
	for _, old := range scan.comps {
		if isIsland(old.cells, inner) {
			continue
		}
		for next < len(islands) && before(islands[next], old) {
			comps = append(comps, islands[next])
			next++
		}
		c := old
		if meets(c.box, holes) {
			c.state = unscored
		}
		comps = append(comps, c)
	}
	comps = append(comps, islands[next:]...)
	s.comps = comps
	s.order = proposalOrder(s.order[:0], comps, img.W*img.H)
	return d.emit(img, comps, s.order, anyClass)
}

// before reports whether a's first cell comes before b's in scan order.
func before(a, b scanComp) bool {
	return a.cells.y0 < b.cells.y0 || a.cells.y0 == b.cells.y0 && a.c0 < b.c0
}

// outline returns the box whose interior is hole.
func outline(hole raster.Rect) raster.Rect {
	return raster.R(hole.X-1, hole.Y-1, hole.W+2, hole.H+2)
}

// meets reports whether r intersects any of holes.
func meets(r raster.Rect, holes []raster.Rect) bool {
	for _, h := range holes {
		if r.Intersects(h) {
			return true
		}
	}
	return false
}

// outlined reports whether every hole is a non-empty interior whose
// outline lies inside img with no White pixel, no two outlined boxes
// overlapping.
func outlined(img *raster.Image, holes []raster.Rect) bool {
	pix := img.Bytes()
	for i, h := range holes {
		o := outline(h)
		if h.Empty() || o.X < 0 || o.Y < 0 || o.X+o.W > img.W || o.Y+o.H > img.H {
			return false
		}
		for _, g := range holes[:i] {
			if o.Intersects(outline(g)) {
				return false
			}
		}
		top, bottom := o.Y*img.W+o.X, (o.Y+o.H-1)*img.W+o.X
		if !solid(pix[top:top+o.W]) || !solid(pix[bottom:bottom+o.W]) {
			return false
		}
		for y := o.Y + 1; y < o.Y+o.H-1; y++ {
			if pix[y*img.W+o.X] == byte(raster.White) || pix[y*img.W+o.X+o.W-1] == byte(raster.White) {
				return false
			}
		}
	}
	return true
}

// solid reports whether no byte of s is White.
func solid(s []byte) bool {
	for _, b := range s {
		if b == byte(raster.White) {
			return false
		}
	}
	return true
}

// innerCells returns the cells wholly inside hole, inclusive; x1 < x0 or
// y1 < y0 when there are none.
func innerCells(hole raster.Rect) cellBox {
	return cellBox{
		x0: int32((hole.X + dilate - 1) / dilate),
		y0: int32((hole.Y + dilate - 1) / dilate),
		x1: int32((hole.X+hole.W)/dilate - 1),
		y1: int32((hole.Y+hole.H)/dilate - 1),
	}
}

// isIsland reports whether a component with cell bounds c lies among the
// inner cells of a hole, which makes it an island: it cannot hold an
// outline cell.
func isIsland(c cellBox, inner []cellBox) bool {
	for _, in := range inner {
		if c.x0 >= in.x0 && c.y0 >= in.y0 && c.x1 <= in.x1 && c.y1 <= in.y1 {
			return true
		}
	}
	return false
}

// islands returns the islands of img inside the holes whose inner cells
// are s.inner, in scan order, with their content boxes. An inner cell on
// the edge of its hole's inner cells touches an outline cell, so the
// islands are the components of the inner cells reaching no such edge.
func (s *propScratch) islands(img *raster.Image) []scanComp {
	out := s.isl[:0]
	for _, in := range s.inner {
		if in.x1-in.x0 < 2 || in.y1-in.y0 < 2 {
			continue // every inner cell is on the edge
		}
		start := len(out)
		out = s.label(out, img, int(in.x0), int(in.y0), int(in.x1-in.x0+1), int(in.y1-in.y0+1))
		kept := out[:start]
		for _, c := range out[start:] {
			if c.cells.x0 > in.x0 && c.cells.y0 > in.y0 && c.cells.x1 < in.x1 && c.cells.y1 < in.y1 {
				c.box = img.ContentBoundsIn(c.cells.pixels())
				kept = append(kept, c)
			}
		}
		out = kept
	}
	slices.SortFunc(out, func(a, b scanComp) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	s.isl = out
	return out
}
