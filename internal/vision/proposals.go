package vision

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/raster"
)

// Proposal generation: connected components of non-background pixels with a
// small dilation radius, so glyphs merge into text lines and widget chrome
// merges into whole widgets. This plays the role of Faster R-CNN's region
// proposal network.

const (
	dilate       = 3   // merge radius in pixels
	minPropW     = 10  // discard smaller proposals
	minPropH     = 8   //
	maxProposals = 300 // safety cap for pathological pages
)

// propScratch holds the transient buffers of one Proposals call, recycled
// through a pool so steady-state detection does not allocate per page.
type propScratch struct {
	acc    []byte     // the OR of one cell row's pixel rows
	runs   []cellRun  // every run of occupied cells, in scan order
	parent []int32    // union-find over runs; a root is its set's earliest run
	comps  []scanComp // every component, in scan order
	order  []int32    // indices into comps of the proposals, largest first

	// Rescan's: the inner cells of each hole and the islands in them.
	inner []cellBox
	isl   []scanComp
}

// cellRun is a maximal horizontal run of occupied cells [c0, c1] in cell
// row cy.
type cellRun struct{ cy, c0, c1 int32 }

// cellBox is a component's bounds in cells, inclusive.
type cellBox struct{ x0, y0, x1, y1 int32 }

// pixels returns the cell box in pixels; the last cell row or column may
// reach past the image.
func (c cellBox) pixels() raster.Rect {
	return raster.R(int(c.x0)*dilate, int(c.y0)*dilate,
		int(c.x1-c.x0+1)*dilate, int(c.y1-c.y0+1)*dilate)
}

var scratchPool = sync.Pool{New: func() any { return new(propScratch) }}

// Proposals returns candidate object regions in img, each tightened to its
// content, largest first. Tightening removes the cell-granularity margins
// the coarse grid introduces, so detection features align with the
// exact-box features the detector trained on.
func Proposals(img *raster.Image) []raster.Rect {
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	comps := s.components(img)
	s.order = proposalOrder(s.order[:0], comps, img.W*img.H)
	var out []raster.Rect
	for _, i := range s.order {
		out = append(out, comps[i].box)
	}
	return out
}

// components returns every component of img's occupied cells in the scan
// order of its first cell, each with its content box, in s.comps.
//
// The page is cut into dilate-sized cells, a cell being occupied when any
// of its pixels is not White, and the components are the 8-connected sets
// of occupied cells: glyphs within the dilation radius merge. Each cell
// row's pixel rows are ORed into one buffer (a row equal to the one above
// adds nothing and is skipped), the runs of occupied cells are read out of
// it skipping blank words, and each run joins the runs of the cell row
// above that touch it within one cell. Components come out in the scan
// order of their first cell.
func (s *propScratch) components(img *raster.Image) []scanComp {
	comps := s.label(s.comps[:0], img, 0, 0, (img.W+dilate-1)/dilate, (img.H+dilate-1)/dilate)
	for i := range comps {
		// Never empty: the cell box holds an occupied cell.
		comps[i].box = img.ContentBoundsIn(comps[i].cells.pixels())
	}
	s.comps = comps
	return comps
}

// label appends to dst the components of the occupied cells among the nx×ny
// cells whose first is (cx0, cy0), in scan order, with their cell bounds
// (in the image's cells) and first cells, unscored and without content
// boxes. Cells on the image's last row or column may be cut short by it.
func (s *propScratch) label(dst []scanComp, img *raster.Image, cx0, cy0, nx, ny int) []scanComp {
	x0 := cx0 * dilate
	w, h := min(nx*dilate, img.W-x0), img.H
	if w <= 0 || ny <= 0 {
		return dst
	}
	acc := slices.Grow(s.acc[:0], w)[:w]
	pix := img.Bytes()
	line := func(y int) []byte { return pix[y*img.W+x0 : y*img.W+x0+w] }
	runs, parent := s.runs[:0], s.parent[:0]
	prev := 0 // index of the cell row above's first run
	for cy := 0; cy < ny; cy++ {
		y0 := (cy0 + cy) * dilate
		copy(acc, line(y0))
		for y := y0 + 1; y < min(y0+dilate, h); y++ {
			if row := line(y); !bytes.Equal(row, line(y-1)) {
				orInto(acc, row)
			}
		}
		cur := len(runs)
		for x := nonZero(acc, 0); x < w; {
			c0 := x / dilate
			c1 := c0
			for (c1+1)*dilate < w && !blank(acc[(c1+1)*dilate:min((c1+2)*dilate, w)]) {
				c1++
			}
			id := int32(len(runs))
			runs = append(runs, cellRun{int32(cy), int32(c0), int32(c1)})
			parent = append(parent, id)
			// Join the runs above that touch this one, diagonals included.
			// A run above that ends left of this one's reach cannot touch a
			// later run of this row either.
			for prev < cur && int(runs[prev].c1) < c0-1 {
				prev++
			}
			for q := prev; q < cur && int(runs[q].c0) <= c1+1; q++ {
				union(parent, int32(q), id)
			}
			x = nonZero(acc, (c1+1)*dilate)
		}
		prev = cur
	}
	// Parents only ever point to earlier runs and a root is its set's
	// earliest, so visiting runs in order meets each component at its
	// first cell, and relabels every run with its component after the run
	// it points to.
	base := len(dst)
	for i, r := range runs {
		r.cy, r.c0, r.c1 = r.cy+int32(cy0), r.c0+int32(cx0), r.c1+int32(cx0)
		p := parent[i]
		if int(p) == i {
			parent[i] = int32(len(dst) - base)
			dst = append(dst, scanComp{cells: cellBox{r.c0, r.cy, r.c1, r.cy}, c0: r.c0})
			continue
		}
		parent[i] = parent[p]
		b := &dst[base+int(parent[i])].cells
		b.x0, b.x1, b.y1 = min(b.x0, r.c0), max(b.x1, r.c1), r.cy
	}
	s.acc, s.runs, s.parent = acc, runs[:0], parent[:0]
	return dst
}

// proposalOrder appends to order the indices of the components whose
// content boxes are proposals, largest first, at most maxProposals of them.
// Boxes too small to classify, or whole-page blobs with no localization
// signal (over nine tenths of the page's area), are not proposals.
func proposalOrder(order []int32, comps []scanComp, pageArea int) []int32 {
	for i := range comps {
		b := comps[i].box
		if b.W < minPropW || b.H < minPropH || b.Area() > pageArea*9/10 {
			continue
		}
		order = append(order, int32(i))
	}
	// Stable insertion sort by descending area: proposal counts are small
	// and this avoids the per-call closure and swapper allocations of the
	// reflection-based sort.
	for i := 1; i < len(order); i++ {
		c := order[i]
		a := comps[c].box.Area()
		j := i - 1
		for j >= 0 && comps[order[j]].box.Area() < a {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = c
	}
	if len(order) > maxProposals {
		order = order[:maxProposals]
	}
	return order
}

// find returns the root of i's set, halving the path as it goes.
func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// union joins the sets of a and b under the earlier of their two roots.
func union(parent []int32, a, b int32) {
	ra, rb := find(parent, a), find(parent, b)
	if ra < rb {
		parent[rb] = ra
	} else {
		parent[ra] = rb
	}
}

// orInto ORs src into dst, eight bytes at a time.
func orInto(dst, src []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])|binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// nonZero returns the index of the first non-zero byte of s at or after i,
// or len(s), skipping zero words.
func nonZero(s []byte, i int) int {
	for ; i+8 <= len(s); i += 8 {
		if v := binary.LittleEndian.Uint64(s[i:]); v != 0 {
			return i + bits.TrailingZeros64(v)/8
		}
	}
	for i < len(s) && s[i] == 0 {
		i++
	}
	return i
}

// blank reports whether every byte of s is zero (White).
func blank(s []byte) bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// NonMaxSuppression removes detections that overlap a higher-scoring
// detection of the same class by more than iouThreshold.
func NonMaxSuppression(dets []Detection, iouThreshold float64) []Detection {
	sorted := append([]Detection(nil), dets...)
	// Stable insertion sort by descending score (detection lists are
	// short; avoids the reflection-based sort's allocations).
	for i := 1; i < len(sorted); i++ {
		d := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j].Score < d.Score {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = d
	}
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if k.Class == d.Class && k.Box.IoU(d.Box) > iouThreshold {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}
