package brands

import (
	"math/rand"
	"testing"

	"repro/internal/raster"
)

func TestCatalogueIntegrity(t *testing.T) {
	seen := map[string]bool{}
	domains := map[string]bool{}
	for _, b := range All() {
		if b.Name == "" || b.LegitDomain == "" || b.LogoText == "" {
			t.Errorf("incomplete brand: %+v", b)
		}
		if seen[b.Name] {
			t.Errorf("duplicate brand name %q", b.Name)
		}
		seen[b.Name] = true
		if domains[b.LegitDomain] {
			t.Errorf("duplicate domain %q", b.LegitDomain)
		}
		domains[b.LegitDomain] = true
	}
	if Count() < 40 {
		t.Errorf("catalogue too small: %d", Count())
	}
}

func TestTop10MatchesTable7(t *testing.T) {
	want := []string{
		"Office365", "DHL Airways, Inc.", "Facebook, Inc.", "WhatsApp",
		"Tencent", "Crypto/Wallet", "Outlook", "La Banque Postale",
		"Chase Personal Banking", "M & T Bank Corporation",
	}
	top := Top10()
	if len(top) != 10 {
		t.Fatalf("Top10 returned %d brands", len(top))
	}
	for i, name := range want {
		if top[i].Name != name {
			t.Errorf("Top10[%d] = %q, want %q", i, top[i].Name, name)
		}
	}
}

func TestTable3BrandsExist(t *testing.T) {
	for _, name := range Table3Brands() {
		if _, ok := ByName(name); !ok {
			t.Errorf("Table 3 brand %q not in catalogue", name)
		}
	}
}

func TestEveryCategoryPopulated(t *testing.T) {
	for _, c := range Categories() {
		if len(ByCategory(c)) == 0 {
			t.Errorf("category %s has no brands", c)
		}
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("Netflix")
	if !ok || b.Category != OnlineCloud {
		t.Errorf("ByName(Netflix) = %+v, %v", b, ok)
	}
	if _, ok := ByName("No Such Brand"); ok {
		t.Error("unknown brand found")
	}
}

func TestDrawLogo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range Top10() {
		logo := b.DrawLogo(rng)
		if logo.W < 10 || logo.H < 10 {
			t.Errorf("%s logo degenerate: %dx%d", b.Name, logo.W, logo.H)
		}
		// Logo must be dominated by the brand color.
		h := logo.CellCounts(raster.R(0, 0, logo.W, logo.H), 1, 1)[0]
		if int(h[b.Color]) < logo.W*logo.H/3 {
			t.Errorf("%s logo not brand-colored", b.Name)
		}
	}
}

func TestLegitScreenshotsDiffer(t *testing.T) {
	a := mustBrand(t, "Chase Personal Banking").LegitScreenshot()
	b := mustBrand(t, "Netflix").LegitScreenshot()
	if a.W != b.W || a.H != b.H {
		t.Fatal("screenshots should share canonical size")
	}
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			diff++
		}
	}
	if diff < len(a.Pix)/20 {
		t.Errorf("brand designs too similar: %d differing pixels", diff)
	}
	// Deterministic.
	a2 := mustBrand(t, "Chase Personal Banking").LegitScreenshot()
	for i := range a.Pix {
		if a.Pix[i] != a2.Pix[i] {
			t.Fatal("LegitScreenshot not deterministic")
		}
	}
}

func mustBrand(t *testing.T, name string) Brand {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("brand %q missing", name)
	}
	return b
}

func TestLegitScreenshotUsesColor(t *testing.T) {
	for _, b := range Top10() {
		img := b.LegitScreenshot()
		h := img.CellCounts(raster.R(0, 0, img.W, img.H), 1, 1)[0]
		if h[b.Color] == 0 {
			t.Errorf("%s legit page missing brand color", b.Name)
		}
		if img.W != 480 || img.H != 360 {
			t.Errorf("%s legit page wrong size", b.Name)
		}
	}
}
