package vision

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/raster"
)

// The reference: how the detector searched for checkboxes and tightened
// proposals before both skipped work. Every candidate square was scored
// through clipped integral queries, and every component's cell-aligned box
// was tightened by binary search on an integral built over that whole box.
// The exported names serve the corpus test in the external package, which
// can import pagegen (pagegen imports vision).

func refCheckboxScore(in *raster.Integral, r raster.Rect) float64 {
	if r.W < 30 || r.H < 14 {
		return 0
	}
	best := 0.0
	for size := 8; size <= 16; size += 2 {
		inner := size - 4
		n := inner * inner
		for y := r.Y + 2; y+size < r.Y+r.H-2; y++ {
			for x := r.X + 2; x+size < r.X+r.W/3; x++ {
				sq := raster.R(x, y, size, size)
				edge := borderScore(in, sq)
				interiorLight := refLightCount(in, raster.R(sq.X+2, sq.Y+2, inner, inner))
				s := edge * float64(interiorLight) / float64(n)
				if s > best {
					best = s
				}
			}
		}
	}
	return best
}

// refLightCount is the clipped light count the reference loop read.
func refLightCount(in *raster.Integral, r raster.Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.LightIn(r)
}

// refTighten shrinks box to the bounding rectangle of its non-white pixels
// by binary-searching prefix counts on an integral over the clipped box.
func refTighten(img *raster.Image, box raster.Rect) raster.Rect {
	box = box.Clip(img.W, img.H)
	in := raster.NewIntegralRegion(img, box)
	defer in.Release()
	if in.NonWhiteCount(box) == 0 {
		return box
	}
	minX := box.X + sort.Search(box.W, func(i int) bool {
		return in.NonWhiteCount(raster.R(box.X, box.Y, i+1, box.H)) > 0
	})
	maxX := box.X + box.W - 1 - sort.Search(box.W, func(i int) bool {
		return in.NonWhiteCount(raster.R(box.X+box.W-1-i, box.Y, i+1, box.H)) > 0
	})
	minY := box.Y + sort.Search(box.H, func(i int) bool {
		return in.NonWhiteCount(raster.R(box.X, box.Y, box.W, i+1)) > 0
	})
	maxY := box.Y + box.H - 1 - sort.Search(box.H, func(i int) bool {
		return in.NonWhiteCount(raster.R(box.X, box.Y+box.H-1-i, box.W, i+1)) > 0
	})
	return raster.R(minX, minY, maxX-minX+1, maxY-minY+1)
}

// refFeaturesFrom is featuresInto with the reference checkbox search.
func refFeaturesFrom(in *raster.Integral, r raster.Rect) []float64 {
	f := featuresInto(make([]float64, FeatureDim), in, r)
	if r = r.Intersect(in.Region); !r.Empty() {
		f[26] = refCheckboxScore(in, r)
	}
	return f
}

// RefFeatures is the reference for Features.
func RefFeatures(img *raster.Image, r raster.Rect) []float64 {
	in := raster.NewIntegralRegion(img, r)
	defer in.Release()
	return refFeaturesFrom(in, r)
}

// RefProposals is the reference for Proposals.
func RefProposals(img *raster.Image) []raster.Rect { return proposals(img, refTighten) }

// RefTrain is the reference for Train.
func RefTrain(examples []Example, seed int64) (*Detector, error) {
	return train(examples, seed, RefFeatures)
}

// RefDetect is the reference for d.Detect. It reads every proposal's
// features from one table over the whole page: any table covering a box
// gives the same counts inside it as the table over the box alone.
func RefDetect(d *Detector, img *raster.Image) []Detection {
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	in := raster.NewIntegral(img)
	defer in.Release()
	var dets []Detection
	for _, box := range RefProposals(img) {
		class, conf := d.scoreFeatures(refFeaturesFrom(in, box))
		if class == ClassBackground || conf < threshold {
			continue
		}
		dets = append(dets, Detection{Class: class, Score: conf, Box: box})
	}
	return NonMaxSuppression(dets, 0.3)
}

// SameFeatures reports whether two feature vectors are bit-identical.
func SameFeatures(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzFeatures compares Features, Proposals and Detect with the reference
// on images up to 128x128. The pixels repeat each data byte k times and each
// row rr times, so runs, empty bands and solid blocks are common; a byte
// of 16 or more is White, so about half the page is background. When bs is
// non-zero an outlined light square of side 8 to 16, the checkbox the
// search looks for, is drawn at (bx, by). Pixels are palette colors, as in
// every decoded or drawn image. The seed corpus in testdata/fuzz reaches
// each skip of the checkbox search: a perfect square, squares with no light
// pixel, and bands of rows with no content.
func FuzzFeatures(f *testing.F) {
	det := trainedDetector(f)
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte, k, rr, bx, by, bs uint8, rx, ry, rw, rh int16) {
		im := raster.New(int(w)%129, int(h)%129, raster.White)
		if len(data) > 0 {
			run, rows := int(k)%8+1, int(rr)%8+1
			for y := 0; y < im.H; y++ {
				for x := 0; x < im.W; x++ {
					if c := data[((y/rows)*im.W+x)/run%len(data)] % 32; c < 16 {
						im.Pix[y*im.W+x] = raster.Color(c)
					}
				}
			}
		}
		if bs > 0 {
			size := 8 + int(bs)%5*2
			box := raster.R(int(bx), int(by), size, size)
			im.Fill(box, raster.White)
			im.Outline(box, raster.Gray)
		}
		r := raster.R(int(rx), int(ry), int(rw), int(rh))
		if got, want := Features(im, r), RefFeatures(im, r); !SameFeatures(got, want) {
			t.Fatalf("%dx%d image: Features(%v) = %v, want %v", im.W, im.H, r, got, want)
		}
		props := Proposals(im)
		if want := RefProposals(im); !reflect.DeepEqual(props, want) {
			t.Fatalf("%dx%d image: Proposals = %v, want %v", im.W, im.H, props, want)
		}
		for _, b := range props {
			if got, want := Features(im, b), RefFeatures(im, b); !SameFeatures(got, want) {
				t.Fatalf("%dx%d image: Features(%v) = %v, want %v", im.W, im.H, b, got, want)
			}
		}
		if got, want := det.Detect(im), RefDetect(det, im); !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d image: Detect = %+v, want %+v", im.W, im.H, got, want)
		}
	})
}
