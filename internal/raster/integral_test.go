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

// brute-force reference statistics for one window.
func bruteStats(img *Image, r Rect) (hist [NumColors]int, ink, light, nonWhite, hTrans, vTrans int) {
	r = r.Clip(img.W, img.H)
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			c := img.At(x, y)
			hist[c]++
			if c != White {
				nonWhite++
			}
			if img.Intensity(x, y) < 128 {
				ink++
			}
			if img.Intensity(x, y) >= 200 {
				light++
			}
			if x > r.X && c != img.At(x-1, y) {
				hTrans++
			}
			if y > r.Y && c != img.At(x, y-1) {
				vTrans++
			}
		}
	}
	return
}

func checkWindows(t *testing.T, img *Image, in *Integral, rng *rand.Rand, queries int) {
	t.Helper()
	w, h := img.W, img.H
	for q := 0; q < queries; q++ {
		// Random windows, including ones hanging off the image edges.
		r := R(rng.Intn(w+10)-5, rng.Intn(h+10)-5, 1+rng.Intn(w), 1+rng.Intn(h))
		hist, ink, light, nonWhite, hT, vT := bruteStats(img, r)
		if got := in.InkCount(r); got != ink {
			t.Fatalf("InkCount(%v) = %d, want %d", r, got, ink)
		}
		if got := in.NonWhiteCount(r); got != nonWhite {
			t.Fatalf("NonWhiteCount(%v) = %d, want %d", r, got, nonWhite)
		}
		// The unclipped readers take the window clipped to the table.
		if c := r.Intersect(in.Region); !c.Empty() {
			if got := in.LightIn(c); got != light {
				t.Fatalf("LightIn(%v) = %d, want %d", c, got, light)
			}
			if got := in.NonWhiteIn(c); got != nonWhite {
				t.Fatalf("NonWhiteIn(%v) = %d, want %d", c, got, nonWhite)
			}
		}
		gotHist, gotH, gotV := in.Stats(r)
		if gotHist != hist {
			t.Fatalf("Stats(%v) hist = %v, want %v", r, gotHist, hist)
		}
		if gotH != hT || gotV != vT {
			t.Fatalf("Stats(%v) trans = (%d, %d), want (%d, %d)", r, gotH, gotV, hT, vT)
		}
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		w, h := 8+rng.Intn(120), 8+rng.Intn(90)
		img := randomImage(rng, w, h)
		in := NewIntegral(img)
		checkWindows(t, img, in, rng, 40)
		in.Release()
	}
}

// TestIntegralRegionMatchesBruteForce builds region-scoped tables and checks
// queries both inside and partially outside the covered region (the latter
// must clip to the region).
func TestIntegralRegionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		w, h := 16+rng.Intn(100), 16+rng.Intn(80)
		img := randomImage(rng, w, h)
		region := R(rng.Intn(w-8), rng.Intn(h-8), 8+rng.Intn(w), 8+rng.Intn(h)).Clip(w, h)
		in := NewIntegralRegion(img, region)
		for q := 0; q < 30; q++ {
			sub := R(region.X+rng.Intn(region.W)-2, region.Y+rng.Intn(region.H)-2,
				1+rng.Intn(region.W+4), 1+rng.Intn(region.H+4))
			want := sub.Intersect(region)
			_, _, _, nonWhite, _, _ := bruteStats(img, want)
			if got := in.NonWhiteCount(sub); got != nonWhite {
				t.Fatalf("region %v: NonWhiteCount(%v) = %d, want %d", region, sub, got, nonWhite)
			}
			hist, _, _ := in.Stats(sub)
			wantHist, _, _, _, _, _ := bruteStats(img, want)
			if hist != wantHist {
				t.Fatalf("region %v: Stats(%v) hist = %v, want %v", region, sub, hist, wantHist)
			}
		}
		in.Release()
	}
}

// TestIntegralPoolReuse exercises the buffer-recycling path: a released
// table's buffer must serve a smaller region without stale counts leaking
// through the top row or left column.
func TestIntegralPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randomImage(rng, 120, 90)
	in := NewIntegral(big)
	checkWindows(t, big, in, rng, 10)
	in.Release()
	for trial := 0; trial < 30; trial++ {
		w, h := 4+rng.Intn(100), 4+rng.Intn(70)
		img := randomImage(rng, w, h)
		in := NewIntegral(img)
		checkWindows(t, img, in, rng, 10)
		in.Release()
	}
}

func TestIntegralEmptyAndAbsentColor(t *testing.T) {
	img := New(10, 10, White) // only White present
	in := NewIntegral(img)
	hist, _, _ := in.Stats(R(0, 0, 10, 10))
	if hist[Red] != 0 {
		t.Errorf("absent color count = %d", hist[Red])
	}
	if hist[White] != 100 {
		t.Errorf("white count = %d", hist[White])
	}
	if got := in.NonWhiteCount(R(0, 0, 10, 10)); got != 0 {
		t.Errorf("nonwhite = %d", got)
	}
	if got := in.InkCount(R(-5, -5, 3, 3)); got != 0 {
		t.Errorf("fully out-of-bounds ink = %d", got)
	}
	empty := NewIntegral(New(0, 0, White))
	if got := empty.InkCount(R(0, 0, 5, 5)); got != 0 {
		t.Errorf("empty image ink = %d", got)
	}
}
