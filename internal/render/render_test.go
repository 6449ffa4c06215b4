package render

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/ocr"
	"repro/internal/raster"
)

func TestRenderTextVisible(t *testing.T) {
	doc := dom.Parse(`<body><div>WELCOME BACK</div></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "WELCOME BACK") {
		t.Errorf("screenshot text = %q, want WELCOME BACK", got)
	}
}

func TestRenderInputBoxChrome(t *testing.T) {
	doc := dom.Parse(`<body><input id="i" placeholder="Email"></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	box, _ := p.Layout.Box(doc.ElementByID("i"))
	// Outline pixels present at box corners.
	if p.Screenshot.At(box.X, box.Y) != raster.Gray {
		t.Errorf("input outline missing at %v", box)
	}
	// Placeholder text appears in gray inside the box.
	found := false
	for y := box.Y; y < box.Y+box.H; y++ {
		for x := box.X; x < box.X+box.W; x++ {
			if p.Screenshot.At(x, y) == raster.Gray && x > box.X && y > box.Y {
				found = true
			}
		}
	}
	if !found {
		t.Error("placeholder not painted")
	}
}

func TestRenderInputValueAndPasswordMask(t *testing.T) {
	doc := dom.Parse(`<body><input id="u" value="alice"><input id="p" type="password" value="secret"></body>`)
	p := Render[*raster.Image](doc, 500, nil)
	ub, _ := p.Layout.Box(doc.ElementByID("u"))
	texts := ocr.New().RecognizeRegion(p.Screenshot, ub)
	if len(texts) == 0 || !strings.Contains(texts[0].Text, "ALICE") {
		t.Errorf("value not painted: %+v", texts)
	}
	pb, _ := p.Layout.Box(doc.ElementByID("p"))
	ptexts := ocr.New().RecognizeRegion(p.Screenshot, pb)
	for _, r := range ptexts {
		if strings.Contains(r.Text, "SECRET") {
			t.Error("password painted in clear text")
		}
	}
}

func TestRenderButtonLabel(t *testing.T) {
	doc := dom.Parse(`<body><button>NEXT</button></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "NEXT") {
		t.Errorf("button label missing from screenshot: %q", got)
	}
}

func TestRenderHiddenExcluded(t *testing.T) {
	doc := dom.Parse(`<body><div style="display:none">SECRETTEXT</div><div>SHOWN</div></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if strings.Contains(got, "SECRETTEXT") {
		t.Error("display:none content painted")
	}
	if !strings.Contains(got, "SHOWN") {
		t.Errorf("visible content missing: %q", got)
	}
}

func TestRenderBackgroundImageCarriesText(t *testing.T) {
	// The Figure 3 evasion: the label exists only in the background image.
	bg := raster.New(300, 60, raster.White)
	bg.DrawString("CARD NUMBER", 4, 40, raster.Black) // below the input row
	resolve := func(url string) *raster.Image {
		if url == "/bg.pxi" {
			return bg
		}
		return nil
	}
	doc := dom.Parse(`<body><div id="wrap" style="background-image:url(/bg.pxi); height: 60px"><input id="i" name="fld1"></div></body>`)
	p := Render(doc, 400, resolve)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "CARD NUMBER") {
		t.Errorf("background image text not composited: %q", got)
	}
	// And the DOM genuinely does not contain the label.
	if strings.Contains(strings.ToUpper(dom.Render(doc)), "CARD NUMBER") {
		t.Error("test invalid: label leaked into DOM")
	}
}

func TestRenderImgPlaceholderWhenUnresolvable(t *testing.T) {
	doc := dom.Parse(`<body><img id="m" src="/missing.pxi" width="40" height="20"></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	box, _ := p.Layout.Box(doc.ElementByID("m"))
	if p.Screenshot.At(box.CenterX(), box.CenterY()) != raster.LightGray {
		t.Error("missing image should paint a placeholder")
	}
}

func TestRenderImgBlitsResolvedImage(t *testing.T) {
	logo := raster.New(40, 20, raster.Red)
	resolve := func(url string) *raster.Image {
		if url == "/logo.pxi" {
			return logo
		}
		return nil
	}
	doc := dom.Parse(`<body><img id="m" src="/logo.pxi" width="40" height="20"></body>`)
	p := Render(doc, 400, resolve)
	box, _ := p.Layout.Box(doc.ElementByID("m"))
	if p.Screenshot.At(box.X+5, box.Y+5) != raster.Red {
		t.Error("resolved image not blitted")
	}
}

func TestRenderCanvasTrickVisibleOnlyInRaster(t *testing.T) {
	// A canvas styled as a submit button: visually a button, but DOM
	// analysis finds no button/input element.
	doc := dom.Parse(`<body><canvas id="c" data-label="SUBMIT" width="80" height="18"></canvas></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "SUBMIT") {
		t.Errorf("canvas label not painted: %q", got)
	}
	if len(doc.ElementsByTag("button")) != 0 {
		t.Error("test invalid: DOM contains a real button")
	}
}

func TestRenderBackgroundColor(t *testing.T) {
	doc := dom.Parse(`<body><div id="hero" style="background-color: navy; height: 40px">X</div></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	box, _ := p.Layout.Box(doc.ElementByID("hero"))
	if p.Screenshot.At(box.X+box.W-2, box.Y+2) != raster.Navy {
		t.Error("background color not painted")
	}
}

func TestRenderSelect(t *testing.T) {
	doc := dom.Parse(`<body><select id="s"><option>ALABAMA</option><option>ALASKA</option></select></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "ALABAMA") {
		t.Errorf("select first option not shown: %q", got)
	}
	if strings.Contains(got, "ALASKA") {
		t.Errorf("collapsed select should show only first option: %q", got)
	}
}

func TestRenderHeightClamped(t *testing.T) {
	var b strings.Builder
	b.WriteString("<body>")
	for i := 0; i < 2000; i++ {
		b.WriteString("<div>row</div>")
	}
	b.WriteString("</body>")
	doc := dom.Parse(b.String())
	p := Render[*raster.Image](doc, 300, nil)
	if p.Screenshot.H > 4000 {
		t.Errorf("screenshot height %d exceeds clamp", p.Screenshot.H)
	}
}

func TestFullLoginPageEndToEnd(t *testing.T) {
	doc := dom.Parse(`<body>
	  <div style="background-color: navy; height: 30px"><span style="color:white">ACME BANK</span></div>
	  <form>
	    <div><label>Email address</label><input name="email"></div>
	    <div><label>Password</label><input type="password" name="pw"></div>
	    <button>LOG IN</button>
	  </form>
	</body>`)
	p := Render[*raster.Image](doc, 500, nil)
	got := ocr.New().Text(p.Screenshot)
	for _, want := range []string{"EMAIL ADDRESS", "PASSWORD", "LOG IN"} {
		if !strings.Contains(got, want) {
			t.Errorf("screenshot missing %q; got:\n%s", want, got)
		}
	}
}

func BenchmarkRenderLoginPage(b *testing.B) {
	doc := dom.Parse(`<body><form>
	  <div><label>Email</label><input name="email"></div>
	  <div><label>Password</label><input type="password"></div>
	  <button>Sign in</button></form></body>`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Render[*raster.Image](doc, 800, nil)
	}
}

func TestRenderAnchorStyledAsButton(t *testing.T) {
	doc := dom.Parse(`<body><a id="a" href="/x" style="background-color: navy; width: 80px; height: 18px">GO</a></body></html>`)
	p := Render[*raster.Image](doc, 400, nil)
	box, ok := p.Layout.Box(doc.ElementByID("a"))
	if !ok {
		t.Fatal("anchor not laid out")
	}
	if p.Screenshot.At(box.X+2, box.Y+2) != raster.Navy {
		t.Error("anchor background not painted")
	}
}

func TestRenderHR(t *testing.T) {
	doc := dom.Parse(`<body><div>above</div><hr><div>below</div></body>`)
	p := Render[*raster.Image](doc, 300, nil)
	// Some gray horizontal pixels exist between the two text rows.
	found := false
	for y := 0; y < p.Screenshot.H; y++ {
		if p.Screenshot.At(10, y) == raster.Gray {
			found = true
		}
	}
	if !found {
		t.Error("hr rule not painted")
	}
}

func TestRenderCheckbox(t *testing.T) {
	doc := dom.Parse(`<body><input id="cb" type="checkbox" name="agree"><span>I agree</span></body>`)
	p := Render[*raster.Image](doc, 300, nil)
	box, _ := p.Layout.Box(doc.ElementByID("cb"))
	if box.W > 20 {
		t.Errorf("checkbox box too wide: %v", box)
	}
	if p.Screenshot.At(box.X, box.Y) != raster.Gray {
		t.Error("checkbox outline missing")
	}
}

func TestRenderSubmitInput(t *testing.T) {
	doc := dom.Parse(`<body><input type="submit" value="PAY NOW"></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	got := ocr.New().Text(p.Screenshot)
	if !strings.Contains(got, "PAY NOW") {
		t.Errorf("submit input label missing: %q", got)
	}
}

func TestRenderDarkButtonUsesLightText(t *testing.T) {
	doc := dom.Parse(`<body><button id="b" style="background-color: navy">Sign in</button></body>`)
	p := Render[*raster.Image](doc, 400, nil)
	box, _ := p.Layout.Box(doc.ElementByID("b"))
	foundWhite := false
	for y := box.Y; y < box.Y+box.H; y++ {
		for x := box.X; x < box.X+box.W; x++ {
			if p.Screenshot.At(x, y) == raster.White {
				foundWhite = true
			}
		}
	}
	if !foundWhite {
		t.Error("dark button should render light label")
	}
}
