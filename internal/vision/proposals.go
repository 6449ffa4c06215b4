package vision

import (
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
	occupied []bool
	label    []int32
	queue    []int32
	boxes    []raster.Rect
}

var scratchPool = sync.Pool{New: func() any { return new(propScratch) }}

// Proposals returns candidate object regions in img, each tightened to its
// content, largest first. Tightening removes the cell-granularity margins
// the coarse grid introduces, so detection features align with the
// exact-box features the detector trained on. It reads the box's pixels
// directly, and every feature reads only pixels inside the tight box, so
// Detect builds each proposal's integral over that box alone.
func Proposals(img *raster.Image) []raster.Rect {
	return proposals(img, (*raster.Image).ContentBoundsIn)
}

// proposals finds the connected components of img's content, shrinks each
// component's box with tighten, and filters and ranks the results.
func proposals(img *raster.Image, tighten func(*raster.Image, raster.Rect) raster.Rect) []raster.Rect {
	w, h := img.W, img.H
	if w == 0 || h == 0 {
		return nil
	}
	// Downscale the problem: operate on a coarse grid of dilate-sized cells
	// marking cells containing any non-white pixel, then connected
	// components over cells. This is O(pixels) and merges features within
	// the dilation radius.
	cw := (w + dilate - 1) / dilate
	ch := (h + dilate - 1) / dilate
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	if cap(s.occupied) < cw*ch {
		s.occupied = make([]bool, cw*ch)
		s.label = make([]int32, cw*ch)
	}
	occupied := s.occupied[:cw*ch]
	for i := range occupied {
		occupied[i] = false
	}
	for y := 0; y < h; y++ {
		row := img.Pix[y*w : y*w+w]
		cellRow := occupied[(y/dilate)*cw:]
		// Pages are mostly background; OR eight pixels at a time and only
		// fall back to per-pixel marking when a chunk has content. Relies
		// on White being palette index 0.
		x := 0
		for ; x+8 <= w; x += 8 {
			if row[x]|row[x+1]|row[x+2]|row[x+3]|row[x+4]|row[x+5]|row[x+6]|row[x+7] != 0 {
				for i := x; i < x+8; i++ {
					if row[i] != raster.White {
						cellRow[i/dilate] = true
					}
				}
			}
		}
		for ; x < w; x++ {
			if row[x] != raster.White {
				cellRow[x/dilate] = true
			}
		}
	}
	label := s.label[:cw*ch]
	for i := range label {
		label[i] = -1
	}
	boxes := s.boxes[:0]
	queue := s.queue[:0]
	for start := 0; start < cw*ch; start++ {
		if !occupied[start] || label[start] >= 0 {
			continue
		}
		id := int32(len(boxes))
		minX, minY, maxX, maxY := cw, ch, -1, -1
		queue = queue[:0]
		queue = append(queue, int32(start))
		label[start] = id
		for len(queue) > 0 {
			cur := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			cx, cy := cur%cw, cur/cw
			if cx < minX {
				minX = cx
			}
			if cy < minY {
				minY = cy
			}
			if cx > maxX {
				maxX = cx
			}
			if cy > maxY {
				maxY = cy
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := cx+dx, cy+dy
					if nx < 0 || ny < 0 || nx >= cw || ny >= ch {
						continue
					}
					ni := ny*cw + nx
					if occupied[ni] && label[ni] < 0 {
						label[ni] = id
						queue = append(queue, int32(ni))
					}
				}
			}
		}
		boxes = append(boxes, raster.R(
			minX*dilate, minY*dilate,
			(maxX-minX+1)*dilate, (maxY-minY+1)*dilate,
		))
	}
	var out []raster.Rect
	for _, b := range boxes {
		b = tighten(img, b) // never empty: b holds a non-white cell
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
	// Return the grown scratch buffers to the pool (out escapes; the rest
	// do not outlive this call).
	s.boxes, s.queue = boxes[:0], queue[:0]
	return out
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
