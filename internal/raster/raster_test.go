package raster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndFill(t *testing.T) {
	im := New(10, 5, Gray)
	if im.W != 10 || im.H != 5 || len(im.Pix) != 50 {
		t.Fatalf("bad dimensions: %dx%d len %d", im.W, im.H, len(im.Pix))
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 10; x++ {
			if im.At(x, y) != Gray {
				t.Fatalf("pixel (%d,%d) = %v, want gray", x, y, im.At(x, y))
			}
		}
	}
	im.Fill(R(2, 1, 3, 2), Red)
	if im.At(2, 1) != Red || im.At(4, 2) != Red {
		t.Error("Fill did not cover rect")
	}
	if im.At(1, 1) != Gray || im.At(5, 1) != Gray {
		t.Error("Fill exceeded rect")
	}
	// Clipped away: a rectangle off the right edge keeps an X past the
	// image, and one above it a negative Y.
	before := im.Clone()
	im.Fill(R(15, 0, 3, 5), Red)
	im.Fill(R(0, -9, 10, 4), Red)
	if !slices.Equal(im.Pix, before.Pix) {
		t.Error("Fill of a rectangle outside the image changed pixels")
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	im := New(4, 4, Black)
	if im.At(-1, 0) != White || im.At(0, 99) != White {
		t.Error("out-of-bounds At should return White")
	}
	im.Set(-1, -1, Red) // must not panic
	im.Set(99, 99, Red)
	im.Fill(R(-5, -5, 100, 100), Blue) // clipped fill must not panic
	if im.At(0, 0) != Blue {
		t.Error("clipped fill missed in-bounds pixels")
	}
}

func TestOutline(t *testing.T) {
	im := New(10, 10, White)
	im.Outline(R(2, 2, 5, 5), Black)
	if im.At(2, 2) != Black || im.At(6, 6) != Black || im.At(2, 6) != Black {
		t.Error("outline corners missing")
	}
	if im.At(3, 3) != White {
		t.Error("outline filled interior")
	}
}

func TestBlitAndSub(t *testing.T) {
	src := New(3, 3, Red)
	dst := New(10, 10, White)
	dst.Blit(src, 4, 4)
	if dst.At(4, 4) != Red || dst.At(6, 6) != Red {
		t.Error("blit missing")
	}
	if dst.At(3, 4) != White || dst.At(7, 4) != White {
		t.Error("blit overflow")
	}
	sub := dst.Sub(R(4, 4, 3, 3))
	for _, p := range sub.Pix {
		if p != Red {
			t.Fatal("sub extracted wrong region")
		}
	}
	// Mutating sub must not affect dst.
	sub.Set(0, 0, Green)
	if dst.At(4, 4) != Red {
		t.Error("Sub aliases parent pixels")
	}
}

func TestBlitClipped(t *testing.T) {
	src := New(5, 5, Blue)
	dst := New(4, 4, White)
	dst.Blit(src, 2, 2) // extends past edges; must not panic
	if dst.At(3, 3) != Blue {
		t.Error("clipped blit lost in-bounds pixels")
	}
}

func TestHistogram(t *testing.T) {
	im := New(4, 4, White)
	im.Fill(R(0, 0, 2, 4), Red)
	h := im.CellCounts(R(0, 0, 4, 4), 1, 1)[0]
	if h[Red] != 8 || h[White] != 8 {
		t.Errorf("histogram = red %d white %d, want 8/8", h[Red], h[White])
	}
}

func TestDownsample(t *testing.T) {
	im := New(20, 20, White)
	im.Fill(R(0, 0, 10, 20), Navy)
	th := im.CellCounts(R(0, 0, 20, 20), 2, 1)
	if th[0].Dominant() != Navy || th[1].Dominant() != White {
		t.Errorf("downsample = %v %v", th[0].Dominant(), th[1].Dominant())
	}
	// Degenerate grids and images must not panic.
	_ = im.CellCounts(R(0, 0, 20, 20), 1, 1)
	empty := New(0, 0, White)
	for _, c := range empty.CellCounts(R(0, 0, 0, 0), 4, 4) {
		if c.Dominant() != White {
			t.Errorf("empty image thumbnail = %v, want white", c.Dominant())
		}
	}
}

func TestRectOps(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 10, 10)
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	inter := a.Intersect(b)
	if inter != R(5, 5, 5, 5) {
		t.Errorf("Intersect = %v", inter)
	}
	u := a.Union(b)
	if u != R(0, 0, 15, 15) {
		t.Errorf("Union = %v", u)
	}
	if got := a.IoU(a); got != 1.0 {
		t.Errorf("self IoU = %v", got)
	}
	c := R(100, 100, 5, 5)
	if a.Intersects(c) || a.IoU(c) != 0 {
		t.Error("disjoint rects should not intersect")
	}
	if !a.Contains(0, 0) || a.Contains(10, 10) {
		t.Error("Contains boundary wrong (half-open)")
	}
	if a.CenterX() != 5 || a.CenterY() != 5 {
		t.Error("center wrong")
	}
}

func TestRectIoUSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by int8, aw, ah, bw, bh uint8) bool {
		a := R(int(ax), int(ay), int(aw), int(ah))
		b := R(int(bx), int(by), int(bw), int(bh))
		iou1, iou2 := a.IoU(b), b.IoU(a)
		if iou1 != iou2 {
			return false
		}
		return iou1 >= 0 && iou1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDrawString(t *testing.T) {
	im := New(100, 12, White)
	end := im.DrawString("HI", 2, 2, Black)
	if end != 2+2*AdvanceX {
		t.Errorf("end x = %d", end)
	}
	// 'H' leftmost column is solid: pixels at x=2, y=2..8.
	for y := 2; y < 2+GlyphH; y++ {
		if im.At(2, y) != Black {
			t.Errorf("H left stroke missing at y=%d", y)
		}
	}
	// Space between glyphs stays background.
	if im.At(2+GlyphW, 4) != White {
		t.Error("inter-glyph gap painted")
	}
}

func TestGlyphCoverage(t *testing.T) {
	must := "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,:-/@?!()&*#$%+='\""
	for _, r := range must {
		if !HasGlyph(r) {
			t.Errorf("font missing glyph %q", r)
		}
	}
	if !HasGlyph('a') || !HasGlyph('z') {
		t.Error("lowercase should fold to uppercase glyphs")
	}
	if !HasGlyph(' ') {
		t.Error("space must be drawable")
	}
}

func TestGlyphsDistinct(t *testing.T) {
	// Every pair of glyphs must differ in at least 2 pixels so OCR matching
	// by Hamming distance is well-posed.
	runes := GlyphRunes()
	bitmap := func(r rune) [7]string { g, _ := Glyph(r); return g }
	dist := func(a, b [7]string) int {
		d := 0
		for i := 0; i < 7; i++ {
			for j := 0; j < 5; j++ {
				if a[i][j] != b[i][j] {
					d++
				}
			}
		}
		return d
	}
	for i := 0; i < len(runes); i++ {
		for j := i + 1; j < len(runes); j++ {
			if d := dist(bitmap(runes[i]), bitmap(runes[j])); d < 2 {
				t.Errorf("glyphs %q and %q differ by only %d pixels", runes[i], runes[j], d)
			}
		}
	}
}

func TestWrapString(t *testing.T) {
	lines := WrapString("the quick brown fox jumps", 10*AdvanceX)
	for _, l := range lines {
		if len(l) > 10 {
			t.Errorf("line %q exceeds 10 chars", l)
		}
	}
	joined := ""
	for _, l := range lines {
		joined += l + " "
	}
	for _, w := range []string{"the", "quick", "brown", "fox", "jumps"} {
		if !contains(lines, w) && !containsSub(joined, w) {
			t.Errorf("word %q lost in wrap", w)
		}
	}
	// Over-long word hard-splits rather than looping forever.
	lines = WrapString("abcdefghijklmnop", 4*AdvanceX)
	if len(lines) < 4 {
		t.Errorf("long word should hard-split, got %v", lines)
	}
	// Tiny maxW must not loop or panic.
	_ = WrapString("x y", 1)
}

func contains(list []string, s string) bool {
	for _, l := range list {
		if l == s {
			return true
		}
	}
	return false
}

func containsSub(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (stringIndex(s, sub) >= 0))
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		w, h := rng.Intn(60)+1, rng.Intn(40)+1
		im := New(w, h, White)
		for i := range im.Pix {
			im.Pix[i] = Color(rng.Intn(int(NumColors)))
		}
		data := Encode(im)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if back.W != w || back.H != h {
			t.Fatalf("dimensions changed: %dx%d -> %dx%d", w, h, back.W, back.H)
		}
		for i := range im.Pix {
			if im.Pix[i] != back.Pix[i] {
				t.Fatal("pixel data changed in round trip")
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("not an image"),
		[]byte("PXI1"),
		append([]byte("PXI1"), make([]byte, 8)...), // zero dims
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
	// Truncated pixel data.
	im := New(8, 8, Red)
	data := Encode(im)
	if _, err := Decode(data[:len(data)-2]); err == nil {
		t.Error("truncated data should fail")
	}
	// A color byte outside the palette.
	data[13] = byte(NumColors)
	if _, err := Decode(data); err == nil {
		t.Error("out-of-palette color should fail")
	}
	// A header declaring 16384x16384 over no pixel data is refused before
	// the 256 MiB image is allocated.
	huge := append([]byte("PXI1"), 0, 0, 0x40, 0, 0, 0, 0x40, 0, 1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(huge); !errors.Is(err, ErrBadImage) {
		t.Errorf("huge header: err = %v, want ErrBadImage", err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing a huge header allocated %d bytes", n)
	}
}

func TestDataURIRoundTrip(t *testing.T) {
	im := New(9, 4, Teal)
	im.DrawString("OK", 0, 0, Black)
	uri := EncodeDataURI(im)
	back, err := DecodeDataURI(uri)
	if err != nil {
		t.Fatalf("DecodeDataURI: %v", err)
	}
	if back.W != im.W || back.H != im.H {
		t.Error("data URI round trip changed dimensions")
	}
	if _, err := DecodeDataURI("data:image/png;base64,xxxx"); err == nil {
		t.Error("wrong mime type should fail")
	}
}

func TestParseColor(t *testing.T) {
	if ParseColor("navy") != Navy || ParseColor("NAVY") != Navy {
		t.Error("ParseColor navy failed")
	}
	if ParseColor("nonexistent") != Black {
		t.Error("unknown color should default to black")
	}
	for c := Color(0); c < NumColors; c++ {
		if ParseColor(c.String()) != c {
			t.Errorf("round trip failed for %v", c)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	im := New(800, 600, White)
	im.Fill(R(100, 100, 400, 300), Navy)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(im)
	}
}

func BenchmarkDrawString(b *testing.B) {
	im := New(800, 600, White)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		im.DrawString("Please enter your email address and password", 10, 10, Black)
	}
}

// blitRef is Blit one pixel at a time through Set's bounds check.
func blitRef(im, src *Image, x, y int) {
	for sy := 0; sy < src.H; sy++ {
		for sx := 0; sx < src.W; sx++ {
			im.Set(x+sx, y+sy, src.Pix[sy*src.W+sx])
		}
	}
}

// TestBlitMatchesPerPixel places sources across every edge and corner of
// the destination, inside it, covering it, and wholly outside it.
func TestBlitMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dst := New(20, 15, White)
	for i := range dst.Pix {
		dst.Pix[i] = Color(rng.Intn(int(NumColors)))
	}
	for _, size := range [][2]int{{1, 1}, {6, 4}, {30, 25}, {0, 3}} {
		src := New(size[0], size[1], White)
		for i := range src.Pix {
			src.Pix[i] = Color(rng.Intn(int(NumColors)))
		}
		for _, x := range []int{-40, -7, -3, 0, 5, 14, 17, 19, 20, 33} {
			for _, y := range []int{-40, -5, -2, 0, 4, 10, 13, 14, 15, 30} {
				got, want := dst.Clone(), dst.Clone()
				got.Blit(src, x, y)
				blitRef(want, src, x, y)
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("%dx%d source at (%d,%d): pixel (%d,%d) = %v, want %v",
							src.W, src.H, x, y, i%dst.W, i/dst.W, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}

// encodeRef is Encode with every run scanned one pixel at a time.
func encodeRef(im *Image) []byte {
	out := make([]byte, 0, 12+len(im.Pix)/4)
	out = append(out, pxiMagic[:]...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(im.W))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(im.H))
	out = append(out, hdr[:]...)
	i := 0
	for i < len(im.Pix) {
		c := im.Pix[i]
		run := 1
		for i+run < len(im.Pix) && im.Pix[i+run] == c && run < 255 {
			run++
		}
		out = append(out, byte(run), byte(c))
		i += run
	}
	return out
}

// TestEncodeMatchesPerPixel checks Encode against the per-pixel loop on
// runs around the 255-pixel cut and the 8-byte word, runs that cross rows,
// a 1x1 image, an empty one and random pixels.
func TestEncodeMatchesPerPixel(t *testing.T) {
	// runs builds a w-wide image from runs of alternating Red and Blue
	// pixels of the given lengths, padded with White.
	runs := func(w int, lengths ...int) *Image {
		var pix []Color
		for k, n := range lengths {
			for range n {
				pix = append(pix, []Color{Red, Blue}[k%2])
			}
		}
		h := (len(pix) + w - 1) / w
		im := New(w, h, White)
		copy(im.Pix, pix)
		return im
	}
	rng := rand.New(rand.NewSource(9))
	noisy := New(37, 23, White)
	for i := range noisy.Pix {
		if rng.Intn(3) == 0 {
			noisy.Pix[i] = Color(rng.Intn(int(NumColors)))
		}
	}
	cases := map[string]*Image{
		"1x1":                New(1, 1, Green),
		"empty":              New(0, 0, White),
		"run of 255":         runs(255, 255),
		"run of 256":         runs(256, 256),
		"run of 510":         runs(510, 510),
		"runs around 255":    runs(40, 254, 1, 255, 256, 509, 510, 511, 7, 8, 9),
		"runs crossing rows": runs(13, 5, 20, 13, 26, 40, 3),
		"one color":          New(300, 200, Gray),
		"noise":              noisy,
	}
	for name, im := range cases {
		if got, want := Encode(im), encodeRef(im); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode = %v, want %v", name, got, want)
		}
	}
}

// TestEncodeExactLength checks that an encoded stream holds no spare
// capacity: a corpus keeps every stream it encodes, so spare capacity is
// memory held for nothing.
func TestEncodeExactLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noisy := New(64, 48, White)
	for i := range noisy.Pix {
		noisy.Pix[i] = Color(rng.Intn(int(NumColors)))
	}
	page := New(400, 300, White)
	page.Fill(R(0, 0, 400, 40), Navy)
	page.DrawString("SIGN IN TO CONTINUE", 20, 60, Black)
	for name, im := range map[string]*Image{"empty": New(0, 0, White), "one color": New(300, 200, Gray), "noise": noisy, "page": page} {
		if b := Encode(im); len(b) != cap(b) {
			t.Errorf("%s: Encode returned len %d, cap %d", name, len(b), cap(b))
		}
	}
}

// decodeRef is Decode without the size bound and with every run written
// one pixel at a time.
func decodeRef(data []byte) (*Image, bool) {
	if len(data) < 12 || [4]byte(data[0:4]) != pxiMagic {
		return nil, false
	}
	w := int(binary.BigEndian.Uint32(data[4:8]))
	h := int(binary.BigEndian.Uint32(data[8:12]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, false
	}
	var pix []Color
	for i := 12; i+1 < len(data); i += 2 {
		if Color(data[i+1]) >= NumColors || len(pix)+int(data[i]) > w*h {
			return nil, false
		}
		for j := 0; j < int(data[i]); j++ {
			pix = append(pix, Color(data[i+1]))
		}
	}
	if len(pix) != w*h {
		return nil, false
	}
	return &Image{W: w, H: h, Pix: pix}, true
}

// FuzzDecode checks that Decode and ParseRuns never panic and agree with
// the per-pixel reference on which inputs they accept, that Decode returns
// the reference's pixels, that the runs painted at four placements derived
// from the input onto a destination with no White pixel equal Blit of the
// decoded image there, and that Decode round-trips what Encode writes,
// which equals the per-pixel encoder's bytes. The seed corpus in
// testdata/fuzz holds a header declaring a huge image over a few bytes, an
// out-of-palette color, runs overflowing the image and runs falling short
// of it.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(New(3, 2, Red)))
	f.Add(Encode(New(30, 20, Blue))) // runs of 255, 255 and 90 pixels
	crossing := New(100, 6, White)   // 255-pixel runs crossing rows 0-2 and 2-5
	fill(crossing.Pix[:300], Green)
	fill(crossing.Pix[510:], Navy)
	f.Add(Encode(crossing))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want, ok := decodeRef(data)
		if (err == nil) != ok {
			t.Fatalf("Decode error = %v, reference accepts = %v", err, ok)
		}
		runs, rerr := ParseRuns(data)
		if (rerr == nil) != ok {
			t.Fatalf("ParseRuns error = %v, reference accepts = %v", rerr, ok)
		}
		if err != nil {
			if !errors.Is(err, ErrBadImage) || !errors.Is(rerr, ErrBadImage) {
				t.Fatalf("Decode error %v, ParseRuns error %v: not ErrBadImage", err, rerr)
			}
			return
		}
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Decode = %dx%d %v, want %dx%d %v", got.W, got.H, got.Pix, want.W, want.H, want.Pix)
		}
		if runs.W != got.W || runs.H != got.H {
			t.Fatalf("ParseRuns = %dx%d, Decode = %dx%d", runs.W, runs.H, got.W, got.H)
		}
		dst := patterned(23, 17)
		h := crc32.ChecksumIEEE(data)
		for k := 0; k < 4; k++ {
			x := int(h%uint32(dst.W+got.W+4)) - got.W - 2
			y := int(h/7%uint32(dst.H+got.H+4)) - got.H - 2
			h = h*2654435761 + 1
			if msg := paintMismatch(runs, got, dst, x, y); msg != "" {
				t.Fatal(msg)
			}
		}
		enc := Encode(got)
		if want := encodeRef(got); !bytes.Equal(enc, want) {
			t.Fatalf("Encode = %v, want %v", enc, want)
		}
		back, err := Decode(enc)
		if err != nil || back.W != got.W || back.H != got.H || !bytes.Equal(back.Bytes(), got.Bytes()) {
			t.Fatalf("Decode(Encode(img)) = %v, %v; want the image back", back, err)
		}
	})
}

// TestFillMatchesByteLoop checks fill against a byte-at-a-time loop for
// every palette color at lengths 0-70 (across the 8-byte word and the
// 64-pixel switch to doubling copies) and 255-257, inside a buffer whose
// bytes around the filled span must stay untouched.
func TestFillMatchesByteLoop(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for c := Color(0); c < NumColors; c++ {
		for _, n := range lengths {
			for _, off := range []int{0, 3} {
				got, want := make([]Color, n+off+9), make([]Color, n+off+9)
				for i := range got {
					got[i] = Color(i%int(NumColors)) ^ 5
					want[i] = got[i]
				}
				fill(got[off:off+n], c)
				for i := off; i < off+n; i++ {
					want[i] = c
				}
				if !slices.Equal(got, want) {
					t.Fatalf("fill(%d pixels at %d, %v) = %v, want %v", n, off, c, got, want)
				}
			}
		}
	}
}

// patterned returns a w x h image with no White pixel, so a White run
// that is not painted shows.
func patterned(w, h int) *Image {
	im := New(w, h, White)
	for i := range im.Pix {
		im.Pix[i] = 1 + Color(i*7%int(NumColors-1))
	}
	return im
}

// paintMismatch paints runs onto a copy of dst at (x, y) and blits img, its
// decoded image, onto another, and describes the first differing pixel,
// or returns "" when the two agree.
func paintMismatch(runs *Runs, img, dst *Image, x, y int) string {
	got, want := dst.Clone(), dst.Clone()
	runs.PaintAt(got, x, y)
	want.Blit(img, x, y)
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			return fmt.Sprintf("%dx%d runs at (%d,%d) on %dx%d: pixel (%d,%d) = %v, want %v",
				runs.W, runs.H, x, y, dst.W, dst.H, i%dst.W, i/dst.W, got.Pix[i], want.Pix[i])
		}
	}
	return ""
}

// TestPaintRunsMatchesBlit places runs across every edge and corner of a
// destination with no White pixel, inside it, covering it and wholly
// outside it, and checks each placement against Blit of the decoded image.
// The images include 1x1 ones, White runs and 255-pixel runs that cross
// rows.
func TestPaintRunsMatchesBlit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	noisy := New(9, 7, White)
	for i := range noisy.Pix {
		if rng.Intn(2) == 0 {
			noisy.Pix[i] = Color(rng.Intn(int(NumColors)))
		}
	}
	crossing := New(13, 40, White) // runs of 255 crossing many 13-pixel rows
	fill(crossing.Pix[100:400], Red)
	fill(crossing.Pix[455:], Blue)
	images := map[string]*Image{
		"1x1 white":       New(1, 1, White),
		"1x1 red":         New(1, 1, Red),
		"white":           New(6, 4, White),
		"noise":           noisy,
		"crossing rows":   crossing,
		"wider than dst":  New(30, 3, Teal),
		"taller than dst": New(2, 25, Olive),
	}
	for _, dst := range []*Image{patterned(20, 15), patterned(1, 1)} {
		for name, im := range images {
			data := Encode(im)
			runs, err := ParseRuns(data)
			if err != nil {
				t.Fatalf("%s: ParseRuns: %v", name, err)
			}
			dec, err := Decode(data)
			if err != nil {
				t.Fatalf("%s: Decode: %v", name, err)
			}
			if ref, _ := decodeRef(data); !bytes.Equal(dec.Bytes(), ref.Bytes()) {
				t.Fatalf("%s: Decode differs from the per-pixel decoder", name)
			}
			for _, x := range []int{-40, -im.W, -im.W + 1, -3, -1, 0, 5, dst.W - im.W, dst.W - 1, dst.W, 33} {
				for _, y := range []int{-40, -im.H, -im.H + 1, -2, 0, 4, dst.H - im.H, dst.H - 1, dst.H, 30} {
					if msg := paintMismatch(runs, dec, dst, x, y); msg != "" {
						t.Fatalf("%s: %s", name, msg)
					}
				}
			}
		}
	}
}
