package raster

import (
	"math/rand"
	"testing"
)

// randomImage fills a w x h image with random palette colors, biased toward
// White so images have background structure like real pages.
func randomImage(rng *rand.Rand, w, h int) *Image {
	img := New(w, h, White)
	for i := range img.Pix {
		if rng.Intn(3) == 0 {
			img.Pix[i] = Color(rng.Intn(int(NumColors)))
		}
	}
	return img
}

// bruteCounts counts one window's non-white and light pixels directly.
func bruteCounts(img *Image, r Rect) (nonWhite, light int) {
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			if c := img.At(x, y); c < NumColors && c != White {
				nonWhite++
			}
			if img.Intensity(x, y) >= 200 {
				light++
			}
		}
	}
	return
}

// checkWindows compares the table's counts with the brute-force ones on
// random windows inside its region.
func checkWindows(t *testing.T, img *Image, in *Integral, rng *rand.Rand, queries int) {
	t.Helper()
	reg := in.Region
	if reg.Empty() {
		return
	}
	for q := 0; q < queries; q++ {
		x, y := reg.X+rng.Intn(reg.W), reg.Y+rng.Intn(reg.H)
		r := R(x, y, 1+rng.Intn(reg.X+reg.W-x), 1+rng.Intn(reg.Y+reg.H-y))
		nonWhite, light := bruteCounts(img, r)
		if got := in.NonWhiteIn(r); got != nonWhite {
			t.Fatalf("region %v: NonWhiteIn(%v) = %d, want %d", reg, r, got, nonWhite)
		}
		if got := in.LightIn(r); got != light {
			t.Fatalf("region %v: LightIn(%v) = %d, want %d", reg, r, got, light)
		}
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		w, h := 8+rng.Intn(120), 8+rng.Intn(90)
		img := randomImage(rng, w, h)
		in := NewIntegralRegion(img, R(0, 0, w, h))
		checkWindows(t, img, in, rng, 40)
		in.Release()
	}
}

// TestIntegralRegionMatchesBruteForce builds tables over regions reaching
// past the image's edges (clipped to it), with an out-of-palette pixel,
// which reads as light and not as non-white.
func TestIntegralRegionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		w, h := 16+rng.Intn(100), 16+rng.Intn(80)
		img := randomImage(rng, w, h)
		img.Pix[rng.Intn(len(img.Pix))] = NumColors + 3
		region := R(rng.Intn(w-8), rng.Intn(h-8), 8+rng.Intn(w), 8+rng.Intn(h))
		in := NewIntegralRegion(img, region)
		if want := region.Clip(w, h); in.Region != want {
			t.Fatalf("Region = %v, want %v", in.Region, want)
		}
		checkWindows(t, img, in, rng, 30)
		in.Release()
	}
}

// TestIntegralPoolReuse exercises the buffer-recycling path: a released
// table's buffer must serve a smaller region without stale counts leaking
// through the top row or left column.
func TestIntegralPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randomImage(rng, 120, 90)
	in := NewIntegralRegion(big, R(0, 0, 120, 90))
	checkWindows(t, big, in, rng, 10)
	in.Release()
	for trial := 0; trial < 30; trial++ {
		w, h := 4+rng.Intn(100), 4+rng.Intn(70)
		img := randomImage(rng, w, h)
		in := NewIntegralRegion(img, R(0, 0, w, h))
		checkWindows(t, img, in, rng, 10)
		in.Release()
	}
}

func TestIntegralEmptyAndAbsentColor(t *testing.T) {
	img := New(10, 10, White)
	if in := NewIntegralRegion(img, R(-5, -5, 3, 3)); !in.Region.Empty() {
		t.Errorf("region off the image = %v, want empty", in.Region)
	}
	if in := NewIntegralRegion(New(0, 0, White), R(0, 0, 5, 5)); !in.Region.Empty() {
		t.Errorf("region of an empty image = %v, want empty", in.Region)
	}
	in := NewIntegralRegion(img, R(0, 0, 10, 10))
	if got := in.NonWhiteIn(R(0, 0, 10, 10)); got != 0 {
		t.Errorf("nonwhite on a blank image = %d", got)
	}
	if got := in.LightIn(R(2, 3, 4, 5)); got != 20 {
		t.Errorf("light on a blank image = %d, want 20", got)
	}
}
