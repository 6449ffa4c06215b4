package visualphish

import (
	"testing"

	"repro/internal/brands"
	"repro/internal/browser"
	"repro/internal/raster"
	"repro/internal/sitegen"
)

func gallery(t testing.TB) *Gallery {
	g := NewGallery()
	for _, b := range brands.All() {
		g.Add(b.Name, b.LegitScreenshot())
	}
	return g
}

func TestGalleryMatchesOwnExemplars(t *testing.T) {
	g := gallery(t)
	for _, b := range brands.Top10() {
		match, d := g.Match(b.LegitScreenshot())
		if match != b.Name {
			t.Errorf("legit %s matched %q (d=%.3f)", b.Name, match, d)
		}
		if d > 0.01 {
			t.Errorf("self-distance for %s = %.3f", b.Name, d)
		}
	}
}

func TestCloneDetected(t *testing.T) {
	g := gallery(t)
	chase, _ := brands.ByName("Chase Personal Banking")
	// A cloning phish: start from the legit design, tweak a detail.
	clone := chase.LegitScreenshot()
	clone.DrawString("V2", 440, 340, raster.Gray)
	if !g.Clones(clone, chase.Name) {
		match, d := g.Match(clone)
		t.Errorf("near-identical page not recognized as clone (matched %q, d=%.3f)", match, d)
	}
}

func TestNonCloneImpersonation(t *testing.T) {
	g := gallery(t)
	// A DHL-brand phish that uses a completely generic design — the
	// Figure 1 case. It impersonates DHL (logo colors) but shares no layout
	// with dhl.com.
	generic := raster.New(480, 360, raster.White)
	generic.Fill(raster.R(180, 20, 120, 30), raster.Yellow) // small logo-ish block
	generic.DrawString("DOWNLOAD SHIPMENT DOCUMENT", 100, 80, raster.Black)
	generic.Outline(raster.R(140, 140, 200, 18), raster.Gray)
	generic.Outline(raster.R(140, 180, 200, 18), raster.Gray)
	generic.Fill(raster.R(140, 260, 200, 60), raster.Red)
	if g.Clones(generic, "DHL Airways, Inc.") {
		t.Error("generic design incorrectly judged a clone of DHL")
	}
}

func TestEmbeddingDistanceProperties(t *testing.T) {
	a := Embed(raster.New(100, 100, raster.White))
	b := Embed(raster.New(100, 100, raster.Navy))
	if Distance(a, a) != 0 {
		t.Error("self distance nonzero")
	}
	if Distance(a, b) != Distance(b, a) {
		t.Error("distance asymmetric")
	}
	if Distance(a, b) <= 0 {
		t.Error("distinct images at zero distance")
	}
}

func TestMatchThresholdRejectsAlienDesign(t *testing.T) {
	g := gallery(t)
	// A page unlike any gallery design: dense random-ish pattern.
	alien := raster.New(480, 360, raster.White)
	for y := 0; y < 360; y += 3 {
		for x := (y / 3 % 2) * 3; x < 480; x += 6 {
			alien.Fill(raster.R(x, y, 3, 3), raster.Color(1+(x+y)%15))
		}
	}
	match, d := g.Match(alien)
	if match != "" {
		t.Errorf("alien design matched %q at d=%.3f", match, d)
	}
}

func TestBrandsListing(t *testing.T) {
	g := gallery(t)
	bs := g.Brands()
	if len(bs) != brands.Count() {
		t.Errorf("gallery brands = %d, want %d", len(bs), brands.Count())
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			t.Error("brands not sorted")
		}
	}
	if g.Len() != brands.Count() {
		t.Errorf("gallery size = %d", g.Len())
	}
}

func TestEmptyGallery(t *testing.T) {
	g := NewGallery()
	match, _ := g.Match(raster.New(100, 100, raster.White))
	if match != "" {
		t.Error("empty gallery should match nothing")
	}
}

func BenchmarkMatch(b *testing.B) {
	g := gallery(b)
	query, _ := brands.ByName("Netflix")
	img := query.LegitScreenshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(img)
	}
}

func BenchmarkEmbedCropped(b *testing.B) {
	// The first page of a clone-heavy seeded corpus at the crawler's
	// viewport: the kind of screenshot a triage probe embeds.
	p := sitegen.ScaledParams(40, 42)
	p.MinCampaignSize = 20
	s := sitegen.Generate(p).Sites[0]
	img := sitegen.RenderPage(s, s.Pages[0].HTML, browser.ViewportWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embedSink = EmbedCropped(img)
	}
}

var embedSink Embedding

func TestCropContent(t *testing.T) {
	img := raster.New(200, 100, raster.White)
	img.Fill(raster.R(50, 20, 60, 30), raster.Navy)
	if b := img.ContentBounds(); b != raster.R(50, 20, 60, 30) {
		t.Errorf("content bounds = %v, want (50,20 60x30)", b)
	}
	if a, b := EmbedCropped(img), Embed(img.Sub(raster.R(50, 20, 60, 30))); !sameEmbedding(a, b) {
		t.Error("cropped embedding differs from the embedding of the crop")
	}
	// An all-white image embeds whole.
	blank := raster.New(10, 10, raster.White)
	if b := blank.ContentBounds(); !b.Empty() {
		t.Errorf("blank content bounds = %v, want empty", b)
	}
	if a, b := EmbedCropped(blank), Embed(blank); !sameEmbedding(a, b) {
		t.Error("blank cropped embedding differs from the whole-image embedding")
	}
}

func TestEmbedCroppedNormalizesMargins(t *testing.T) {
	design := func(offsetX, canvasW int) *raster.Image {
		img := raster.New(canvasW, 200, raster.White)
		img.Fill(raster.R(offsetX, 10, 300, 40), raster.Navy)
		img.Outline(raster.R(offsetX+20, 80, 200, 18), raster.Gray)
		img.Fill(raster.R(offsetX+20, 120, 80, 20), raster.Red)
		return img
	}
	// Same design with and without a wide white margin.
	a := EmbedCropped(design(0, 320))
	b := EmbedCropped(design(0, 800))
	if d := Distance(a, b); d > 0.1 {
		t.Errorf("margin changed cropped embedding by %.3f", d)
	}
	// Without cropping the margin dominates.
	c := Embed(design(0, 320))
	e := Embed(design(0, 800))
	if d := Distance(c, e); d < 0.1 {
		t.Errorf("uncropped embeddings unexpectedly close: %.3f", d)
	}
}

func TestAddCroppedAndMatchEmbedding(t *testing.T) {
	g := NewGallery()
	chase, _ := brands.ByName("Chase Personal Banking")
	g.AddCropped(chase.Name, chase.LegitScreenshot())
	q := EmbedCropped(chase.LegitScreenshot())
	match, d := g.MatchEmbedding(q)
	if match != chase.Name || d > 0.01 {
		t.Errorf("MatchEmbedding = %q (%.3f)", match, d)
	}
	// A far-away embedding misses.
	far := EmbedCropped(raster.New(100, 100, raster.Olive))
	if m, _ := g.MatchEmbedding(far); m != "" {
		t.Errorf("far embedding matched %q", m)
	}
}
