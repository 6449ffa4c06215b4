package vision

import (
	"bytes"
	"encoding/binary"
	"math/bits"
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
	acc    []byte    // the OR of one cell row's pixel rows
	runs   []cellRun // every run of occupied cells, in scan order
	parent []int32   // union-find over runs; a root is its set's earliest run
	boxes  []cellBox // per root run: its component's cell bounds
}

// cellRun is a maximal horizontal run of occupied cells [c0, c1] in cell
// row cy.
type cellRun struct{ cy, c0, c1 int32 }

// cellBox is a component's bounds in cells, inclusive.
type cellBox struct{ x0, y0, x1, y1 int32 }

var scratchPool = sync.Pool{New: func() any { return new(propScratch) }}

// Proposals returns candidate object regions in img, each tightened to its
// content, largest first. Tightening removes the cell-granularity margins
// the coarse grid introduces, so detection features align with the
// exact-box features the detector trained on.
//
// The page is cut into dilate-sized cells, a cell being occupied when any
// of its pixels is not White, and the components are the 8-connected sets
// of occupied cells: glyphs within the dilation radius merge. Each cell
// row's pixel rows are ORed into one buffer (a row equal to the one above
// adds nothing and is skipped), the runs of occupied cells are read out of
// it skipping blank words, and each run joins the runs of the cell row
// above that touch it within one cell. Components come out in the scan
// order of their first cell.
func Proposals(img *raster.Image) []raster.Rect {
	w, h := img.W, img.H
	if w == 0 || h == 0 {
		return nil
	}
	ch := (h + dilate - 1) / dilate
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	if cap(s.acc) < w {
		s.acc = make([]byte, w)
	}
	acc := s.acc[:w]
	pix := img.Bytes()
	runs, parent := s.runs[:0], s.parent[:0]
	prev := 0 // index of the cell row above's first run
	for cy := 0; cy < ch; cy++ {
		y0 := cy * dilate
		copy(acc, pix[y0*w:y0*w+w])
		for y := y0 + 1; y < min(y0+dilate, h); y++ {
			row := pix[y*w : y*w+w]
			if !bytes.Equal(row, pix[(y-1)*w:y*w]) {
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
	// first cell, and relabels every run with its component's box after
	// the run it points to.
	boxes := s.boxes[:0]
	for i, r := range runs {
		p := parent[i]
		if int(p) == i {
			parent[i] = int32(len(boxes))
			boxes = append(boxes, cellBox{r.c0, r.cy, r.c1, r.cy})
			continue
		}
		parent[i] = parent[p]
		b := &boxes[parent[i]]
		b.x0, b.x1, b.y1 = min(b.x0, r.c0), max(b.x1, r.c1), r.cy
	}
	s.runs, s.parent, s.boxes = runs[:0], parent[:0], boxes[:0]
	var out []raster.Rect
	for _, c := range boxes {
		b := raster.R(int(c.x0)*dilate, int(c.y0)*dilate,
			int(c.x1-c.x0+1)*dilate, int(c.y1-c.y0+1)*dilate)
		b = img.ContentBoundsIn(b) // never empty: b holds an occupied cell
		if b.W < minPropW || b.H < minPropH || b.Area() > w*h*9/10 {
			// Too small to classify, or a whole-page blob with no
			// localization signal.
			continue
		}
		out = append(out, b)
	}
	// Stable insertion sort by descending area: proposal counts are small
	// and this avoids the per-call closure and swapper allocations of the
	// reflection-based sort.
	for i := 1; i < len(out); i++ {
		b := out[i]
		j := i - 1
		for j >= 0 && out[j].Area() < b.Area() {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = b
	}
	if len(out) > maxProposals {
		out = out[:maxProposals]
	}
	return out
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
