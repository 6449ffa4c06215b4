package captcha

import (
	"math/rand"
	"testing"

	"repro/internal/raster"
)

func TestAllKindsRender(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range AllKinds() {
		img, text := Render(k, rng)
		if img == nil || img.W < 20 || img.H < 10 {
			t.Errorf("%s rendered degenerate image", k)
		}
		if k.IsText() && text == "" {
			t.Errorf("%s should return challenge text", k)
		}
		if k.IsVisual() && text != "" {
			t.Errorf("%s should not return challenge text, got %q", k, text)
		}
		// Every CAPTCHA must contain non-background pixels.
		h := img.CellCounts(raster.R(0, 0, img.W, img.H), 1, 1)[0]
		nonWhite := 0
		for c, n := range h {
			if raster.Color(c) != raster.White {
				nonWhite += int(n)
			}
		}
		if nonWhite == 0 {
			t.Errorf("%s rendered an all-white image", k)
		}
	}
}

func TestKindStringNames(t *testing.T) {
	if Text1.String() != "text-type1" || Text6.String() != "text-type6" {
		t.Errorf("text names: %s %s", Text1, Text6)
	}
	if Visual1.String() != "visual-type1" || Visual2.String() != "visual-type2" {
		t.Errorf("visual names: %s %s", Visual1, Visual2)
	}
}

func TestKindPartition(t *testing.T) {
	if len(TextKinds()) != 6 || len(VisualKinds()) != 2 || len(AllKinds()) != 8 {
		t.Error("kind partition sizes wrong")
	}
	for _, k := range TextKinds() {
		if !k.IsText() || k.IsVisual() {
			t.Errorf("%s misclassified", k)
		}
	}
	for _, k := range VisualKinds() {
		if !k.IsVisual() || k.IsText() {
			t.Errorf("%s misclassified", k)
		}
	}
}

func TestChallengeCharset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		c := Challenge(rng, 6)
		if len(c) != 6 {
			t.Fatalf("challenge length %d", len(c))
		}
		for _, r := range c {
			// Excludes easily-confused characters 0, O, 1, I.
			if r == '0' || r == 'O' || r == '1' || r == 'I' {
				t.Errorf("confusing character %q in challenge", r)
			}
		}
	}
}

func TestInstancesVary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, _ := Render(Text1, rng)
	b, _ := Render(Text1, rng)
	if a.W == b.W && a.H == b.H {
		same := true
		for i := range a.Pix {
			if a.Pix[i] != b.Pix[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two instances are pixel-identical")
		}
	}
}

func TestVisual2HasCheckboxStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img, _ := Render(Visual2, rng)
	// A white region (the checkbox) must exist in the left third.
	found := false
	for y := 0; y < img.H && !found; y++ {
		for x := 0; x < img.W/3; x++ {
			if img.At(x, y) == raster.White {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("visual-type2 lacks a checkbox region")
	}
}

func TestProviderScriptDetection(t *testing.T) {
	if DetectProvider(ScriptURL(ProviderRecaptcha)) != ProviderRecaptcha {
		t.Error("recaptcha script not detected")
	}
	if DetectProvider(ScriptURL(ProviderHcaptcha)) != ProviderHcaptcha {
		t.Error("hcaptcha script not detected")
	}
	if DetectProvider("https://cdn.example.com/jquery.js") != ProviderNone {
		t.Error("unrelated script misdetected")
	}
	if ScriptURL(ProviderCustom) != "" || ScriptURL(ProviderNone) != "" {
		t.Error("custom/none providers must have no script URL")
	}
}
