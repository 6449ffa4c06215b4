// Package pagegen generates the annotated synthetic web-page screenshots on
// which the object detector is trained and evaluated, mirroring Section
// 5.3.2 of the paper: "we use a large collection of brand logos ... to
// automatically generate a set of web pages that contain a logo, a CAPTCHA
// challenge image, an input box and a submit button", with known bounding
// boxes for every element (Figure 13). The paper uses 10,000 pages for
// training, 1,000 for validation and 2,000 for test; the same protocol is
// reproduced by the Table 5 bench.
package pagegen

import (
	"math/rand"

	"repro/internal/brands"
	"repro/internal/captcha"
	"repro/internal/raster"
	"repro/internal/vision"
)

// Config controls page generation.
type Config struct {
	// PageW/PageH bound the generated screenshot size.
	PageW, PageH int
	// CaptchaProb is the probability a page carries a CAPTCHA (always
	// annotated when present). Default 0.7.
	CaptchaProb float64
	// NoiseTextLines adds this many unannotated distractor text lines.
	NoiseTextLines int
}

func (c Config) withDefaults() Config {
	if c.PageW <= 0 {
		c.PageW = 420
	}
	if c.PageH <= 0 {
		c.PageH = 340
	}
	if c.CaptchaProb == 0 {
		c.CaptchaProb = 0.7
	}
	if c.NoiseTextLines == 0 {
		c.NoiseTextLines = 3
	}
	return c
}

var noisePhrases = []string{
	"please verify your details", "secure connection", "terms of service",
	"all rights reserved", "need help signing in", "remember this device",
	"privacy policy", "contact support", "update your information",
}

var buttonLabels = []string{
	"Submit", "Next", "Continue", "Verify", "Sign in", "Log in", "Confirm",
	"Proceed", "Validate",
}

// Generate produces one annotated page. The returned annotations cover the
// logo, the button, and the CAPTCHA when present, exactly the classes of
// Table 5.
func Generate(rng *rand.Rand, cfg Config) vision.Example {
	cfg = cfg.withDefaults()
	return generateInto(raster.New(cfg.PageW, cfg.PageH, raster.White), rng, cfg)
}

// generateInto is Generate drawing into img, a blank cfg.PageW x cfg.PageH
// page; cfg has its defaults applied.
func generateInto(img *raster.Image, rng *rand.Rand, cfg Config) vision.Example {
	var anns []vision.Annotation

	// Vertical slot allocator prevents overlap.
	y := 8
	nextSlot := func(h int) int {
		slot := y
		y += h + 10 + rng.Intn(12)
		return slot
	}

	// Logo at the top, random x.
	brand := brands.All()[rng.Intn(brands.Count())]
	logo := brand.DrawLogo(rng)
	lx := 8 + rng.Intn(maxInt(1, cfg.PageW-logo.W-16))
	ly := nextSlot(logo.H)
	img.Blit(logo, lx, ly)
	anns = append(anns, vision.Annotation{Class: vision.ClassLogo, Box: raster.R(lx, ly, logo.W, logo.H)})

	// A distractor text line.
	for i := 0; i < cfg.NoiseTextLines; i++ {
		phrase := noisePhrases[rng.Intn(len(noisePhrases))]
		tx := 8 + rng.Intn(40)
		ty := nextSlot(raster.GlyphH)
		img.DrawString(phrase, tx, ty, raster.Black)
	}

	// An input box (unannotated: not a Table 5 class, acts as a hard
	// negative for the button detector).
	ibW := 150 + rng.Intn(60)
	ibY := nextSlot(16)
	img.Outline(raster.R(12+rng.Intn(30), ibY, ibW, 14), raster.Gray)

	// Optional CAPTCHA.
	if rng.Float64() < cfg.CaptchaProb {
		kind := captcha.AllKinds()[rng.Intn(int(captcha.NumKinds))]
		cimg, _ := captcha.Render(kind, rng)
		cx := 8 + rng.Intn(maxInt(1, cfg.PageW-cimg.W-16))
		cy := nextSlot(cimg.H)
		if cy+cimg.H < cfg.PageH-40 {
			img.Blit(cimg, cx, cy)
			anns = append(anns, vision.Annotation{Class: kind.String(), Box: raster.R(cx, cy, cimg.W, cimg.H)})
		}
	}

	// Submit button.
	label := buttonLabels[rng.Intn(len(buttonLabels))]
	bw := raster.StringWidth(label) + 18
	bh := 16 + rng.Intn(4)
	bx := 12 + rng.Intn(maxInt(1, cfg.PageW-bw-24))
	by := nextSlot(bh)
	if by+bh >= cfg.PageH {
		by = cfg.PageH - bh - 4
	}
	bbox := raster.R(bx, by, bw, bh)
	img.Fill(bbox, raster.LightGray)
	img.Outline(bbox, raster.Gray)
	img.DrawString(label, bx+9, by+(bh-raster.GlyphH)/2, raster.Black)
	anns = append(anns, vision.Annotation{Class: vision.ClassButton, Box: bbox})

	return vision.Example{Image: img, Annotations: anns}
}

// GenerateSet produces n annotated pages from a fixed seed: the pages Each
// streams, each drawn into an image of its own.
func GenerateSet(n int, seed int64, cfg Config) []vision.Example {
	out := make([]vision.Example, 0, n)
	generate(n, seed, cfg, false, func(ex vision.Example) { out = append(out, ex) })
	return out
}

// Each generates n annotated pages from a fixed seed and hands them to fn
// in order. Every page is drawn into one reused screenshot, so an example
// is valid only during fn's call with it: a detector streams its training
// pages through vision.Trainer without holding them.
func Each(n int, seed int64, cfg Config, fn func(vision.Example)) {
	generate(n, seed, cfg, true, fn)
}

// generate draws n pages from seed and hands each to fn, every page into a
// new image or, with reuse, all into one image cleared between pages.
func generate(n int, seed int64, cfg Config, reuse bool, fn func(vision.Example)) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var img *raster.Image
	for i := 0; i < n; i++ {
		if reuse && img != nil {
			img.Fill(raster.R(0, 0, img.W, img.H), raster.White)
		} else {
			img = raster.New(cfg.PageW, cfg.PageH, raster.White)
		}
		fn(generateInto(img, rng, cfg))
	}
}

// CaptchaCrops returns k rendered CAPTCHA images per kind, used to build the
// pHash exemplar set for the visual-CAPTCHA verification heuristic.
func CaptchaCrops(kind captcha.Kind, k int, seed int64) []*raster.Image {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*raster.Image, k)
	for i := range out {
		img, _ := captcha.Render(kind, rng)
		out[i] = img
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
