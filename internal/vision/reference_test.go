package vision

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/raster"
)

// The reference: how the detector computed features and proposals before
// each skipped or shared work. Every feature was a query on a 3-lane
// summed-area table (non-white, ink, light) plus streaming scans for the
// histogram and transitions; every candidate checkbox square was scored
// through clipped table queries; proposals marked a cell grid pixel by
// pixel, labeled it by breadth-first search over 8 neighbors, and tightened
// each component's cell-aligned box by binary search on a table built over
// that whole box. The exported names serve the corpus test in the external
// package, which can import pagegen (pagegen imports vision).

// refIntegral is the 3-lane summed-area table over a region of an image,
// with a fourth lane for the proposals' occupancy (any byte but White).
type refIntegral struct {
	Region raster.Rect
	im     *raster.Image
	data   [][4]int32 // (W+1) x (H+1) prefix sums: non-white, ink, light, occupied
}

func newRefIntegral(im *raster.Image, r raster.Rect) *refIntegral {
	r = r.Clip(im.W, im.H)
	in := &refIntegral{Region: r, im: im, data: make([][4]int32, (r.W+1)*(r.H+1))}
	s := r.W + 1
	for y := 1; y <= r.H; y++ {
		for x := 1; x <= r.W; x++ {
			px := im.Pix[(r.Y+y-1)*im.W+r.X+x-1]
			iv := raster.ColorIntensity(px) // 255 outside the palette
			var v [4]int32
			if px < raster.NumColors && px != raster.White {
				v[0] = 1
			}
			if iv < 128 {
				v[1] = 1
			}
			if iv >= 200 {
				v[2] = 1
			}
			if px != raster.White {
				v[3] = 1
			}
			for l := range v {
				in.data[y*s+x][l] = v[l] + in.data[(y-1)*s+x][l] + in.data[y*s+x-1][l] - in.data[(y-1)*s+x-1][l]
			}
		}
	}
	return in
}

func (in *refIntegral) sum(lane int, r raster.Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	s := in.Region.W + 1
	x0, y0 := r.X-in.Region.X, r.Y-in.Region.Y
	x1, y1 := x0+r.W, y0+r.H
	d := in.data
	return int(d[y1*s+x1][lane] - d[y0*s+x1][lane] - d[y1*s+x0][lane] + d[y0*s+x0][lane])
}

func (in *refIntegral) NonWhiteCount(r raster.Rect) int { return in.sum(0, r) }
func (in *refIntegral) InkCount(r raster.Rect) int      { return in.sum(1, r) }
func (in *refIntegral) LightCount(r raster.Rect) int    { return in.sum(2, r) }
func (in *refIntegral) Occupied(r raster.Rect) int      { return in.sum(3, r) }

// Stats scans r (clipped) for its palette histogram and the horizontally
// and vertically adjacent pixel pairs whose colors differ.
func (in *refIntegral) Stats(r raster.Rect) (hist [raster.NumColors]int, hTrans, vTrans int) {
	r = r.Intersect(in.Region)
	im := in.im
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			px := im.Pix[y*im.W+x]
			if px < raster.NumColors {
				hist[px]++
			}
			if x > r.X && px != im.Pix[y*im.W+x-1] {
				hTrans++
			}
			if y > r.Y && px != im.Pix[(y-1)*im.W+x] {
				vTrans++
			}
		}
	}
	return
}

func refFeaturesFrom(in *refIntegral, r raster.Rect) []float64 {
	f := make([]float64, FeatureDim)
	r = r.Intersect(in.Region)
	if r.Empty() {
		return f
	}
	w, h := float64(r.W), float64(r.H)
	f[0] = math.Log(w)
	f[1] = math.Log(h)
	f[2] = w / h
	area := float64(r.Area())
	hist, hTrans, vTrans := in.Stats(r)
	for c, n := range hist {
		f[3+c] = float64(n) / area
	}
	f[19] = float64(in.InkCount(r)) / area
	f[20] = float64(hTrans) / area
	f[21] = float64(vTrans) / area
	f[22] = refGridScoreH(in, r)
	f[23] = refGridScoreV(in, r)
	f[24] = refGlyphBandRatio(in, r)
	f[25] = refBorderScore(in, r)
	f[26] = refCheckboxScore(in, r)
	f[27] = refHeaderScore(in, r)
	return f
}

func refGridScoreH(in *refIntegral, r raster.Rect) float64 {
	if r.H < 4 {
		return 0
	}
	lines := 0
	for y := r.Y + 1; y < r.Y+r.H-1; y++ {
		nonBG := in.NonWhiteCount(raster.R(r.X+1, y, r.W-2, 1))
		if float64(nonBG) >= 0.85*float64(r.W-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.H-2)
}

func refGridScoreV(in *refIntegral, r raster.Rect) float64 {
	if r.W < 4 {
		return 0
	}
	lines := 0
	for x := r.X + 1; x < r.X+r.W-1; x++ {
		nonBG := in.NonWhiteCount(raster.R(x, r.Y+1, 1, r.H-2))
		if float64(nonBG) >= 0.85*float64(r.H-2) {
			lines++
		}
	}
	return float64(lines) / float64(r.W-2)
}

func refGlyphBandRatio(in *refIntegral, r raster.Rect) float64 {
	totalInk := in.InkCount(r)
	if totalInk == 0 {
		return 0
	}
	bandY0 := r.CenterY() - raster.GlyphH
	bandY1 := r.CenterY() + raster.GlyphH
	band := r.Intersect(raster.R(r.X, bandY0, r.W, bandY1-bandY0+1))
	return float64(in.InkCount(band)) / float64(totalInk)
}

func refBorderScore(in *refIntegral, r raster.Rect) float64 {
	per := 2*r.W + 2*r.H
	if per == 0 {
		return 0
	}
	hit := in.NonWhiteCount(raster.R(r.X, r.Y, r.W, 1)) +
		in.NonWhiteCount(raster.R(r.X, r.Y+r.H-1, r.W, 1)) +
		in.NonWhiteCount(raster.R(r.X, r.Y, 1, r.H)) +
		in.NonWhiteCount(raster.R(r.X+r.W-1, r.Y, 1, r.H))
	return float64(hit) / float64(per)
}

// refCheckboxScore scores every candidate square, with no skipping.
func refCheckboxScore(in *refIntegral, r raster.Rect) float64 {
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
				edge := refBorderScore(in, sq)
				interiorLight := in.LightCount(raster.R(sq.X+2, sq.Y+2, inner, inner))
				s := edge * float64(interiorLight) / float64(n)
				if s > best {
					best = s
				}
			}
		}
	}
	return best
}

func refHeaderScore(in *refIntegral, r raster.Rect) float64 {
	if r.H < 20 {
		return 0
	}
	stripH := r.H / 5
	if stripH < 4 {
		stripH = 4
	}
	strip := raster.R(r.X+1, r.Y+1, r.W-2, stripH-1)
	n := strip.Intersect(in.Region).Area()
	if strip.W <= 0 || n == 0 {
		return 0
	}
	hist, _, _ := in.Stats(strip)
	best, bestC := 0, raster.White
	for c := raster.Color(0); c < raster.NumColors; c++ {
		if v := hist[c]; v > best {
			best, bestC = v, c
		}
	}
	if bestC == raster.White || bestC == raster.LightGray {
		return 0
	}
	return float64(best) / float64(n)
}

// refTighten shrinks box to the bounding rectangle of its occupied pixels
// by binary-searching prefix counts on a table over the clipped box.
func refTighten(img *raster.Image, box raster.Rect) raster.Rect {
	box = box.Clip(img.W, img.H)
	in := newRefIntegral(img, box)
	if in.Occupied(box) == 0 {
		return box
	}
	minX := box.X + sort.Search(box.W, func(i int) bool {
		return in.Occupied(raster.R(box.X, box.Y, i+1, box.H)) > 0
	})
	maxX := box.X + box.W - 1 - sort.Search(box.W, func(i int) bool {
		return in.Occupied(raster.R(box.X+box.W-1-i, box.Y, i+1, box.H)) > 0
	})
	minY := box.Y + sort.Search(box.H, func(i int) bool {
		return in.Occupied(raster.R(box.X, box.Y, box.W, i+1)) > 0
	})
	maxY := box.Y + box.H - 1 - sort.Search(box.H, func(i int) bool {
		return in.Occupied(raster.R(box.X, box.Y+box.H-1-i, box.W, i+1)) > 0
	})
	return raster.R(minX, minY, maxX-minX+1, maxY-minY+1)
}

// RefFeatures is the reference for Features.
func RefFeatures(img *raster.Image, r raster.Rect) []float64 {
	return refFeaturesFrom(newRefIntegral(img, r), r)
}

// RefProposals is the reference for Proposals: a dilate-sized cell grid
// marked pixel by pixel, connected components by breadth-first search over
// each cell's 8 neighbors in scan order, each component's box tightened,
// then filtered and ranked as Proposals does.
func RefProposals(img *raster.Image) []raster.Rect {
	w, h := img.W, img.H
	if w == 0 || h == 0 {
		return nil
	}
	cw := (w + dilate - 1) / dilate
	ch := (h + dilate - 1) / dilate
	occupied := make([]bool, cw*ch)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if img.Pix[y*w+x] != raster.White {
				occupied[(y/dilate)*cw+x/dilate] = true
			}
		}
	}
	label := make([]bool, cw*ch)
	var out []raster.Rect
	for start := range occupied {
		if !occupied[start] || label[start] {
			continue
		}
		minX, minY, maxX, maxY := cw, ch, -1, -1
		queue := []int{start}
		label[start] = true
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			cx, cy := cur%cw, cur/cw
			minX, minY = min(minX, cx), min(minY, cy)
			maxX, maxY = max(maxX, cx), max(maxY, cy)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := cx+dx, cy+dy
					if nx < 0 || ny < 0 || nx >= cw || ny >= ch {
						continue
					}
					if ni := ny*cw + nx; occupied[ni] && !label[ni] {
						label[ni] = true
						queue = append(queue, ni)
					}
				}
			}
		}
		b := refTighten(img, raster.R(minX*dilate, minY*dilate, (maxX-minX+1)*dilate, (maxY-minY+1)*dilate))
		if b.W < minPropW || b.H < minPropH || b.Area() > w*h*9/10 {
			continue
		}
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Area() > out[j].Area() })
	if len(out) > maxProposals {
		out = out[:maxProposals]
	}
	return out
}

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
	in := newRefIntegral(img, raster.R(0, 0, img.W, img.H))
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

// CheckDetectClass compares DetectClass(img, c) for every class of d, and
// for one name absent from d, with ref, the reference detections of img,
// filtered by class. It returns the first difference, or nil.
func CheckDetectClass(d *Detector, img *raster.Image, ref []Detection) error {
	for _, c := range append(classNames(d), "no-such-class") {
		var want []Detection
		for _, det := range ref {
			if det.Class == c {
				want = append(want, det)
			}
		}
		if got := d.DetectClass(img, c); !SameDetections(got, want) {
			return fmt.Errorf("DetectClass(%q) = %+v, want %+v", c, got, want)
		}
	}
	return nil
}

// SameDetections reports whether two detection lists are equal, with
// scores compared bit for bit so that NaN scores match.
func SameDetections(a, b []Detection) bool {
	return slices.EqualFunc(a, b, func(x, y Detection) bool {
		return x.Class == y.Class && x.Box == y.Box && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
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
// pixel, and bands of rows with no content. DetectClass is checked for
// every class, and the checkbox score of each region must lie in [0, 1],
// the range the detector's bound relies on.
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
		props := Proposals(im)
		if want := RefProposals(im); !reflect.DeepEqual(props, want) {
			t.Fatalf("%dx%d image: Proposals = %v, want %v", im.W, im.H, props, want)
		}
		for _, b := range append(props, r) {
			if got, want := Features(im, b), RefFeatures(im, b); !SameFeatures(got, want) {
				t.Fatalf("%dx%d image: Features(%v) = %v, want %v", im.W, im.H, b, got, want)
			}
			if s := checkboxScore(im, b.Clip(im.W, im.H)); !(s >= 0 && s <= 1) {
				t.Fatalf("%dx%d image: checkboxScore(%v) = %g, outside [0, 1]", im.W, im.H, b, s)
			}
		}
		want := RefDetect(det, im)
		if got := det.Detect(im); !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d image: Detect = %+v, want %+v", im.W, im.H, got, want)
		}
		if err := CheckDetectClass(det, im, want); err != nil {
			t.Fatalf("%dx%d image: %v", im.W, im.H, err)
		}
	})
}

// TestOutOfPaletteMatchesReference puts bytes outside the palette among
// the pixels, which decoding refuses but a drawn image could hold: they
// occupy proposal cells, read as light, and count as neither non-white nor
// ink, nor in the histogram.
func TestOutOfPaletteMatchesReference(t *testing.T) {
	det := trainedDetector(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		im := raster.New(40+rng.Intn(80), 30+rng.Intn(60), raster.White)
		for i := 0; i < 12; i++ {
			b := raster.R(rng.Intn(im.W), rng.Intn(im.H), 4+rng.Intn(30), 3+rng.Intn(20))
			im.Fill(b, raster.Color(rng.Intn(int(raster.NumColors))))
		}
		for i := range im.Pix {
			if rng.Intn(6) == 0 {
				im.Pix[i] = raster.Color(int(raster.NumColors) + rng.Intn(240))
			}
		}
		regions := append(Proposals(im), raster.R(0, 0, im.W, im.H), raster.R(-4, 5, im.W/2, im.H))
		for _, r := range regions {
			if got, want := Features(im, r), RefFeatures(im, r); !SameFeatures(got, want) {
				t.Fatalf("trial %d: Features(%v) = %v, want %v", trial, r, got, want)
			}
		}
		if got, want := Proposals(im), RefProposals(im); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Proposals = %v, want %v", trial, got, want)
		}
		if got, want := det.Detect(im), RefDetect(det, im); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Detect = %+v, want %+v", trial, got, want)
		}
	}
}
