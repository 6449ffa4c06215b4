package vision_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/browser"
	"repro/internal/pagegen"
	"repro/internal/raster"
	"repro/internal/sitegen"
	"repro/internal/vision"
)

// These tests live in the external package because pagegen, which builds
// the detector's training set, imports vision.

// corpusPages renders every page of a seeded sitegen corpus at the crawler's
// viewport width, the screenshots the detector sees in a crawl.
func corpusPages(sites int, seed int64) []*raster.Image {
	var pages []*raster.Image
	for _, s := range sitegen.Generate(sitegen.ScaledParams(sites, seed)).Sites {
		for _, p := range s.Pages {
			pages = append(pages, sitegen.RenderPage(s, p.HTML, browser.ViewportWidth))
		}
	}
	return pages
}

// crawlDetector trains the detector a crawl at seed 42 fits: 600 generated
// pages.
func crawlDetector(t testing.TB) *vision.Detector {
	det, err := vision.Train(pagegen.GenerateSet(600, 44, pagegen.Config{}), 45)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// edited returns a copy of det with edit applied to every class's
// statistics.
func edited(t testing.TB, det *vision.Detector, edit func(class string, mean, std []float64)) *vision.Detector {
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d, err := vision.UnmarshalDetector(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Classes {
		edit(d.Classes[i].Name, d.Classes[i].Mean, d.Classes[i].Std)
	}
	return d
}

// TestDetectorMatchesReferenceOnCorpus checks the detector against the
// reference search on every rendered page of a seeded corpus: the
// proposals, the detections, the features of every proposal (and of the
// proposal grown by a few pixels, as a hand-drawn annotation might be), and
// the bytes of a detector trained on generated pages. Detect and
// DetectClass of every class are checked for that detector and for the
// crawl's.
func TestDetectorMatchesReferenceOnCorpus(t *testing.T) {
	examples := pagegen.GenerateSet(200, 1, pagegen.Config{})
	det, err := vision.Train(examples, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vision.RefTrain(examples, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := det.Marshal()
	want, _ := ref.Marshal()
	if !bytes.Equal(got, want) {
		t.Errorf("trained detector differs from the reference:\n%s\nwant\n%s", got, want)
	}
	detectors := []*vision.Detector{det, crawlDetector(t)}
	pages := corpusPages(60, 42)
	boxes, dets := 0, 0
	for i, page := range pages {
		props := vision.Proposals(page)
		if want := vision.RefProposals(page); !reflect.DeepEqual(props, want) {
			t.Fatalf("page %d: Proposals = %v, want %v", i, props, want)
		}
		boxes += len(props)
		for _, b := range props {
			grown := raster.R(b.X-3, b.Y-3, b.W+6, b.H+6)
			for _, r := range []raster.Rect{b, grown} {
				if got, want := vision.Features(page, r), vision.RefFeatures(page, r); !vision.SameFeatures(got, want) {
					t.Fatalf("page %d: Features(%v) = %v, want %v", i, r, got, want)
				}
			}
		}
		for k, d := range detectors {
			found, want := d.Detect(page), vision.RefDetect(d, page)
			if !reflect.DeepEqual(found, want) {
				t.Fatalf("detector %d, page %d: Detect = %+v, want %+v", k, i, found, want)
			}
			if err := vision.CheckDetectClass(d, page, want); err != nil {
				t.Fatalf("detector %d, page %d: %v", k, i, err)
			}
			dets += len(found)
		}
	}
	t.Logf("%d pages, %d proposals, %d detections", len(pages), boxes, dets)
	if boxes == 0 || dets == 0 {
		t.Error("no proposals or no detections on the corpus: the comparison checked nothing")
	}
}

// TestBoundOnCorpus checks the checkbox bound (vision.CheckBound) on the
// feature vector of every proposal of the corpus, as found and grown, and
// on vectors at, near and far from each class's mean, where the
// background's score falls below its floor. It runs the crawl's detector at
// three thresholds, as trained and with every checkbox mean moved below
// and above [0, 1], where clamping it matters.
func TestBoundOnCorpus(t *testing.T) {
	base := crawlDetector(t)
	var vecs [][]float64
	for _, page := range corpusPages(60, 42) {
		for _, b := range vision.Proposals(page) {
			vecs = append(vecs, vision.Features(page, b), vision.Features(page, raster.R(b.X-3, b.Y-3, b.W+6, b.H+6)))
		}
	}
	for _, cs := range base.Classes {
		for _, k := range []float64{0, 1, 4, 1000} {
			f := slices.Clone(cs.Mean)
			for i := range f {
				f[i] += k * cs.Std[i]
			}
			vecs = append(vecs, f)
		}
	}
	for _, shift := range []float64{0, -1.5, 1.5} {
		for _, threshold := range []float64{0, 0.3, 0.9} {
			d := edited(t, base, func(_ string, mean, _ []float64) { mean[vision.CheckboxFeature] += shift })
			d.Threshold = threshold
			skipped := 0
			for i, f := range vecs {
				n, err := vision.CheckBound(d, f)
				if err != nil {
					t.Fatalf("shift %g, threshold %g, vector %d: %v", shift, threshold, i, err)
				}
				skipped += n
			}
			if skipped == 0 {
				t.Errorf("shift %g, threshold %g: the bound skipped nothing", shift, threshold)
			}
		}
	}
}

// TestHandBuiltDetectorsMatchReference runs detectors no training gives on
// the corpus: zero Stds, which make scores infinite or NaN, and NaN means.
// Detect must equal the reference and DetectClass the reference filtered by
// class, NaN scores included.
func TestHandBuiltDetectorsMatchReference(t *testing.T) {
	base := crawlDetector(t)
	const cb = vision.CheckboxFeature
	variants := []struct {
		name string
		edit func(class string, mean, std []float64)
	}{
		{"every std 0", func(_ string, _, std []float64) { clear(std) }},
		{"checkbox std 0", func(_ string, _, std []float64) { std[cb] = 0 }},
		{"background checkbox std 0 at mean 0", func(class string, mean, std []float64) {
			if class == vision.ClassBackground {
				mean[cb], std[cb] = 0, 0
			}
		}},
		{"background checkbox mean NaN", func(class string, mean, _ []float64) {
			if class == vision.ClassBackground {
				mean[cb] = math.NaN()
			}
		}},
		{"button checkbox mean NaN", func(class string, mean, _ []float64) {
			if class == vision.ClassButton {
				mean[cb] = math.NaN()
			}
		}},
	}
	pages := corpusPages(20, 42)
	for _, v := range variants {
		d := edited(t, base, v.edit)
		nans := 0
		for i, page := range pages {
			got, want := d.Detect(page), vision.RefDetect(d, page)
			if !vision.SameDetections(got, want) {
				t.Fatalf("%s, page %d: Detect = %+v, want %+v", v.name, i, got, want)
			}
			if err := vision.CheckDetectClass(d, page, want); err != nil {
				t.Fatalf("%s, page %d: %v", v.name, i, err)
			}
			for _, det := range want {
				if math.IsNaN(det.Score) {
					nans++
				}
			}
		}
		t.Logf("%s: %d NaN-scored detections", v.name, nans)
	}
}

// BenchmarkDetectPages times Detect over every rendered page of a 60-site
// corpus; ns/op is per page. Unlike BenchmarkDetect's synthetic page, real
// pages carry the large form and container regions where the checkbox
// search is hot.
func BenchmarkDetectPages(b *testing.B) {
	det, err := vision.Train(pagegen.GenerateSet(200, 1, pagegen.Config{}), 2)
	if err != nil {
		b.Fatal(err)
	}
	pages := corpusPages(60, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(pages[i%len(pages)])
	}
}

// BenchmarkDetectClassPages times DetectClass(page, ClassButton), the visual
// submit strategy's call, over the pages of BenchmarkDetectPages; ns/op is
// per page.
func BenchmarkDetectClassPages(b *testing.B) {
	det, err := vision.Train(pagegen.GenerateSet(200, 1, pagegen.Config{}), 2)
	if err != nil {
		b.Fatal(err)
	}
	pages := corpusPages(60, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectClass(pages[i%len(pages)], vision.ClassButton)
	}
}
