package phash

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/browser"
	"repro/internal/raster"
	"repro/internal/sitegen"
)

func pageA() *raster.Image {
	img := raster.New(400, 300, raster.White)
	img.Fill(raster.R(0, 0, 400, 40), raster.Navy)
	img.DrawString("ACME BANK LOGIN", 20, 60, raster.Black)
	img.Outline(raster.R(20, 100, 200, 16), raster.Gray)
	img.Outline(raster.R(20, 140, 200, 16), raster.Gray)
	img.Fill(raster.R(20, 180, 80, 16), raster.LightGray)
	return img
}

func pageB() *raster.Image {
	img := raster.New(400, 300, raster.White)
	img.Fill(raster.R(0, 250, 400, 50), raster.Red)
	img.DrawString("STREAMING SERVICE", 120, 20, raster.Black)
	img.Fill(raster.R(150, 100, 100, 100), raster.Yellow)
	return img
}

func TestIdenticalImagesZeroDistance(t *testing.T) {
	a, b := pageA(), pageA()
	if d := Distance(Compute(a), Compute(b)); d != 0 {
		t.Errorf("identical pages distance = %d", d)
	}
}

func TestDifferentLayoutsFarApart(t *testing.T) {
	d := Distance(Compute(pageA()), Compute(pageB()))
	if d <= DefaultSimilarityThreshold {
		t.Errorf("different layouts distance = %d, want > %d", d, DefaultSimilarityThreshold)
	}
}

func TestSmallPerturbationStaysClose(t *testing.T) {
	a := pageA()
	b := pageA()
	// Small text change, same layout — the campaign-clustering case where
	// the same kit is deployed under a different domain.
	b.DrawString("X7", 350, 280, raster.Gray)
	if d := Distance(Compute(a), Compute(b)); d > DefaultSimilarityThreshold {
		t.Errorf("small perturbation distance = %d, want <= %d", d, DefaultSimilarityThreshold)
	}
}

func TestScaleInvariance(t *testing.T) {
	// The same design rendered at a different size should hash nearby.
	small := pageA()
	big := raster.New(800, 600, raster.White)
	big.Fill(raster.R(0, 0, 800, 80), raster.Navy)
	big.DrawString("ACME BANK LOGIN", 40, 120, raster.Black)
	big.Outline(raster.R(40, 200, 400, 32), raster.Gray)
	big.Outline(raster.R(40, 280, 400, 32), raster.Gray)
	big.Fill(raster.R(40, 360, 160, 32), raster.LightGray)
	d := Distance(Compute(small), Compute(big))
	if d > 60 {
		t.Errorf("scaled design distance = %d, want reasonably small", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(a, b, c [4]uint64) bool {
		ha, hb, hc := Hash(a), Hash(b), Hash(c)
		// Identity, symmetry, triangle inequality, bounds.
		if Distance(ha, ha) != 0 {
			return false
		}
		if Distance(ha, hb) != Distance(hb, ha) {
			return false
		}
		if Distance(ha, hc) > Distance(ha, hb)+Distance(hb, hc) {
			return false
		}
		d := Distance(ha, hb)
		return d >= 0 && d <= Bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptyImage(t *testing.T) {
	empty := raster.New(0, 0, raster.White)
	if Compute(empty) != (Hash{}) {
		t.Error("empty image should hash to zero")
	}
	tiny := raster.New(1, 1, raster.Black)
	_ = Compute(tiny) // must not panic
}

func TestClusterGroupsCampaigns(t *testing.T) {
	// 3 copies of design A, 2 of design B, 1 unique -> 3 clusters.
	var hashes []Hash
	for i := 0; i < 3; i++ {
		img := pageA()
		img.DrawString("V", 380+0, 290, raster.Gray) // trivial variation
		hashes = append(hashes, Compute(img))
	}
	for i := 0; i < 2; i++ {
		hashes = append(hashes, Compute(pageB()))
	}
	unique := raster.New(400, 300, raster.Olive)
	hashes = append(hashes, Compute(unique))

	assign := Cluster(hashes, DefaultSimilarityThreshold)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("design A copies split: %v", assign)
	}
	if assign[3] != assign[4] {
		t.Errorf("design B copies split: %v", assign)
	}
	if assign[0] == assign[3] || assign[0] == assign[5] || assign[3] == assign[5] {
		t.Errorf("distinct designs merged: %v", assign)
	}
}

func TestClusterEmpty(t *testing.T) {
	if got := Cluster(nil, 10); len(got) != 0 {
		t.Errorf("Cluster(nil) = %v", got)
	}
}

func TestNearCount(t *testing.T) {
	base := Compute(pageA())
	exemplars := []Hash{base, base, Compute(pageB())}
	if n := NearCount(base, exemplars, DefaultSimilarityThreshold); n != 2 {
		t.Errorf("NearCount = %d, want 2", n)
	}
	if n := NearCount(Compute(pageB()), exemplars, DefaultSimilarityThreshold); n != 1 {
		t.Errorf("NearCount = %d, want 1", n)
	}
}

func TestHashStringHex(t *testing.T) {
	h := Hash{1, 2, 3, 4}
	s := h.String()
	if len(s) != 64 {
		t.Errorf("hex length = %d, want 64", len(s))
	}
}

func TestNoiseRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := pageA()
	noisy := pageA()
	for i := 0; i < 30; i++ {
		noisy.Set(rng.Intn(400), rng.Intn(300), raster.Gray)
	}
	if d := Distance(Compute(base), Compute(noisy)); d > 15 {
		t.Errorf("30 noisy pixels moved hash by %d", d)
	}
}

func BenchmarkCompute(b *testing.B) {
	img := pageA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(img)
	}
}

// landingPage renders the first page of a clone-heavy seeded corpus at the
// crawler's viewport: the kind of screenshot a triage probe hashes.
func landingPage() *raster.Image {
	p := sitegen.ScaledParams(40, 42)
	p.MinCampaignSize = 20
	s := sitegen.Generate(p).Sites[0]
	return sitegen.RenderPage(s, s.Pages[0].HTML, browser.ViewportWidth)
}

func BenchmarkComputeRegion(b *testing.B) {
	img := landingPage()
	r := raster.R(0, 0, img.W, img.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = ComputeRegion(img, r)
	}
}

var hashSink Hash

func BenchmarkCluster1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hashes := make([]Hash, 1000)
	for i := range hashes {
		// ~50 base designs with small perturbations.
		base := Hash{uint64(i % 50), uint64(i % 50 * 7), 0, 0}
		base[2] = uint64(rng.Intn(4))
		hashes[i] = base
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(hashes, 20)
	}
}
