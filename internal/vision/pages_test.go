package vision_test

import (
	"bytes"
	"reflect"
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

// TestDetectorMatchesReferenceOnCorpus checks the detector against the
// reference search on every rendered page of a seeded corpus: the
// proposals, the detections, the features of every proposal (and of the
// proposal grown by a few pixels, as a hand-drawn annotation might be), and
// the bytes of a detector trained on generated pages.
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
		found := det.Detect(page)
		if want := vision.RefDetect(det, page); !reflect.DeepEqual(found, want) {
			t.Fatalf("page %d: Detect = %+v, want %+v", i, found, want)
		}
		dets += len(found)
	}
	t.Logf("%d pages, %d proposals, %d detections", len(pages), boxes, dets)
	if boxes == 0 || dets == 0 {
		t.Error("no proposals or no detections on the corpus: the comparison checked nothing")
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
