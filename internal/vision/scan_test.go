package vision

import (
	"math"
	"slices"
	"testing"

	"repro/internal/raster"
)

// handBuilt returns det and the detectors TestHandBuiltDetectorsMatchReference
// runs, which no training gives: every Std 0, the checkbox Std 0, and a NaN
// checkbox mean for the background class and for the button class.
func handBuilt(det *Detector) []*Detector {
	edit := func(fn func(cs *classStats)) *Detector {
		d := &Detector{Threshold: det.Threshold}
		for _, cs := range det.Classes {
			cs.Mean, cs.Std = slices.Clone(cs.Mean), slices.Clone(cs.Std)
			fn(&cs)
			d.Classes = append(d.Classes, cs)
		}
		return d
	}
	return []*Detector{
		det,
		edit(func(cs *classStats) { clear(cs.Std) }),
		edit(func(cs *classStats) { cs.Std[checkboxFeature] = 0 }),
		edit(func(cs *classStats) {
			if cs.Name == ClassBackground {
				cs.Mean[checkboxFeature] = math.NaN()
			}
		}),
		edit(func(cs *classStats) {
			if cs.Name == ClassButton {
				cs.Mean[checkboxFeature] = math.NaN()
			}
		}),
	}
}

// paintRects fills rectangles read from data five bytes at a time (x, y,
// w, h, color), relative to r and clipped to it, at most max of them: a
// color byte of 192 or more fills White.
func paintRects(im *raster.Image, r raster.Rect, data []byte, max int) {
	if r.Empty() {
		return
	}
	for i := 0; i+5 <= len(data) && i < 5*max; i += 5 {
		b := raster.R(r.X+int(data[i])%r.W, r.Y+int(data[i+1])%r.H, 1+int(data[i+2])%r.W, 1+int(data[i+3])%r.H)
		c := raster.White
		if data[i+4] < 192 {
			c = raster.Color(data[i+4] % 16)
		}
		im.Fill(b.Intersect(r), c)
	}
}

// FuzzRescan draws outlined boxes over rectangles and fills their
// interiors with other rectangles in each of two images, so the images are equal outside the
// interiors. Rescanning the second image from the first image's scan, with
// the interiors as holes, must equal Detect of the second, and filtering
// it by class must equal DetectClass, for the trained detector and the
// hand-built ones with zero Stds and NaN means. When an outline is broken
// (a pixel of the first box's set White) or two outlined boxes overlap,
// the holes must be refused, so Rescan runs Detect.
func FuzzRescan(f *testing.F) {
	dets := handBuilt(trainedDetector(f))
	// A form: a text line, and two tall-enough inputs typed with a text
	// line.
	form := []byte{4, 4, 60, 14, 4, 30, 60, 20}
	line := []byte{2, 2, 40, 6, 1, 46, 2, 4, 6, 1}
	f.Add(uint8(100), uint8(60), []byte{70, 4, 20, 6, 1}, line, []byte{2, 2, 30, 6, 1}, form, uint8(0), uint16(0))
	// A tall box with an island in one image only, under the detector
	// whose NaN background mean emits every proposal.
	island, tall := []byte{15, 12, 14, 9, 3}, []byte{10, 10, 57, 31}
	f.Add(uint8(76), uint8(56), line, []byte{}, island, tall, uint8(3), uint16(0))
	f.Add(uint8(76), uint8(56), line, island, []byte{}, tall, uint8(3), uint16(0))
	// The island's cells crossed in the second image by a bar joined to the
	// outline; and a block of the island's size below the box, which only
	// the island's place in scan order puts after it.
	f.Add(uint8(76), uint8(56), line, island, []byte{0, 12, 30, 9, 3}, tall, uint8(3), uint16(0))
	f.Add(uint8(76), uint8(56), []byte{20, 60, 14, 9, 1}, []byte{}, island, tall, uint8(3), uint16(0))
	// The same boxes, one outline pixel broken.
	f.Add(uint8(100), uint8(60), []byte{70, 4, 20, 6, 1}, line, line, form, uint8(1), uint16(17))
	// Overlapping boxes, under the zero-Std detector, over a bar joined to
	// their outlines.
	f.Add(uint8(80), uint8(80), []byte{0, 12, 70, 2, 8}, line, []byte{1, 1, 5, 5, 2},
		[]byte{10, 10, 40, 20, 20, 20, 40, 20}, uint8(1), uint16(0))
	// An L of bars around an input, joined to nothing in it, whose cell box
	// reaches into the input.
	f.Add(uint8(100), uint8(100), []byte{0, 10, 46, 3, 1, 0, 10, 3, 40, 1}, line, []byte{0, 0, 12, 9, 5},
		[]byte{30, 20, 30, 20}, uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, w, h uint8, bg, in1, in2, boxes []byte, variant uint8, broken uint16) {
		det := dets[int(variant)%len(dets)]
		W, H := 24+int(w)%104, 24+int(h)%104
		base := raster.New(W, H, raster.White)
		paintRects(base, raster.R(0, 0, W, H), bg, 12)
		var holes []raster.Rect
		for i := 0; i+4 <= len(boxes) && len(holes) < 6; i += 4 {
			b := raster.R(int(boxes[i])%W, int(boxes[i+1])%H, 3+int(boxes[i+2])%64, 3+int(boxes[i+3])%32)
			base.Fill(b, raster.White)
			base.Outline(b, raster.Gray)
			holes = append(holes, raster.R(b.X+1, b.Y+1, b.W-2, b.H-2))
		}
		if broken > 0 && len(holes) > 0 {
			o := outline(holes[0])
			per := 2*o.W + 2*o.H
			k := int(broken) % per
			switch {
			case k < o.W:
				base.Set(o.X+k, o.Y, raster.White)
			case k < 2*o.W:
				base.Set(o.X+k-o.W, o.Y+o.H-1, raster.White)
			case k < 2*o.W+o.H:
				base.Set(o.X, o.Y+k-2*o.W, raster.White)
			default:
				base.Set(o.X+o.W-1, o.Y+k-2*o.W-o.H, raster.White)
			}
		}
		img1, img2 := base.Clone(), base.Clone()
		for _, hole := range holes {
			paintRects(img1, hole.Intersect(raster.R(0, 0, W, H)), in1, 6)
			paintRects(img2, hole.Intersect(raster.R(0, 0, W, H)), in2, 6)
		}
		overlap := false
		for i := range holes {
			for j := range holes[:i] {
				overlap = overlap || outline(holes[i]).Intersects(outline(holes[j]))
			}
		}
		if (overlap || broken > 0 && len(holes) > 0) && outlined(img2, holes) {
			t.Fatalf("%dx%d image: holes %v accepted with overlap %v, broken %d", W, H, holes, overlap, broken)
		}
		first, scan := det.DetectScan(img1)
		if want := det.Detect(img1); !SameDetections(first, want) {
			t.Fatalf("%dx%d image: DetectScan = %+v, Detect = %+v", W, H, first, want)
		}
		want := det.Detect(img2)
		got := det.Rescan(scan, img2, holes)
		if !SameDetections(got, want) {
			t.Fatalf("%dx%d image, holes %v (outlined %v): Rescan = %+v, Detect = %+v", W, H, holes, outlined(img2, holes), got, want)
		}
		for _, c := range append(classNames(det), "no-such-class") {
			if g, w := OfClass(got, c), det.DetectClass(img2, c); !SameDetections(g, w) {
				t.Fatalf("%dx%d image, holes %v: Rescan of class %q = %+v, DetectClass = %+v", W, H, holes, c, g, w)
			}
		}
	})
}
