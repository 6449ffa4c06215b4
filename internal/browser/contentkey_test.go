package browser

import (
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/raster"
)

// keyPage builds a page from markup and an image table without a network:
// each image that parses is kept under its src, as prefetchImages keeps
// it, and one that does not is absent.
func keyPage(html string, images map[string][]byte) *Page {
	p := &Page{Doc: dom.Parse(html), images: map[string]*raster.Runs{}}
	for src, data := range images {
		if r, err := raster.ParseRuns(data); err == nil {
			p.images[src] = r
		}
	}
	return p
}

// keyParts returns p's attributes and non-empty text nodes in walk order.
func keyParts(p *Page) (attrs []*dom.Attr, texts []*dom.Node) {
	p.Doc.Walk(func(n *dom.Node) bool {
		for i := range n.Attrs {
			attrs = append(attrs, &n.Attrs[i])
		}
		if n.Type == dom.TextNode && n.Data != "" {
			texts = append(texts, n)
		}
		return true
	})
	return attrs, texts
}

func sameScreenshot(a, b *Page) bool {
	sa, sb := a.Screenshot(), b.Screenshot()
	return sa.W == sb.W && sa.H == sb.H && slices.Equal(sa.Pix, sb.Pix)
}

// FuzzContentKey checks that Page.ContentKey identifies what a rendering
// reads. Pages with equal keys render bit-identical screenshots: two
// fuzzed documents, and the first reparsed from its own serialization,
// which dom.Render may merge or drop nodes of. And a change to one
// attribute name or value, one text byte or one image byte, or the
// removal of an image, changes the key once MarkDirty has invalidated it.
func FuzzContentKey(f *testing.F) {
	logo := raster.New(12, 5, raster.White)
	logo.Fill(raster.R(2, 1, 8, 3), raster.Blue)
	f.Add(`<html><body><div style="background-image:url(a.pxi)"><label>Card number</label><input name="card" value="4111"><img src="a.pxi"></div><p>Hello<br>world</p></body></html>`,
		`<html><body><div style="background-image:url(a.pxi)"><label>Card number</label><input name="card" value="4112"><img src="a.pxi"></div></body></html>`,
		raster.Encode(logo), uint16(3))
	f.Add(`<p>a</p><p>b</p>`, `<p>ab</p>`, []byte("PXI1"), uint16(0))
	// The same nodes in preorder under different parents: nesting pads.
	f.Add(`<div><div>a</div></div><div>b</div>`, `<div><div>a</div><div>b</div></div>`, []byte{}, uint16(1))
	f.Add(`<input value="x"><img src="a.pxi">text`, `<input value="x">text<img src="a.pxi">`, raster.Encode(logo), uint16(9))
	f.Fuzz(func(t *testing.T, html, other string, img []byte, pick uint16) {
		images := map[string][]byte{"a.pxi": img}
		a := keyPage(html, images)
		key := a.ContentKey()
		if again := keyPage(html, images); again.ContentKey() != key {
			t.Fatal("the same content keyed twice differently")
		}
		for _, b := range []*Page{keyPage(other, images), keyPage(dom.Render(a.Doc), images)} {
			if b.ContentKey() == key && !sameScreenshot(a, b) {
				t.Fatalf("equal keys, different screenshots:\n%q\n%q", dom.Render(a.Doc), dom.Render(b.Doc))
			}
		}

		changed := func(what string, mutate func(p *Page) bool) {
			t.Helper()
			p := keyPage(html, images)
			p.ContentKey() // cached before the change
			if !mutate(p) {
				return
			}
			p.MarkDirty()
			if p.ContentKey() == key {
				t.Errorf("%s left the key unchanged", what)
			}
		}
		changed("an attribute value change", func(p *Page) bool {
			attrs, _ := keyParts(p)
			if len(attrs) == 0 {
				return false
			}
			attrs[int(pick)%len(attrs)].Value += "x"
			return true
		})
		changed("an attribute name change", func(p *Page) bool {
			attrs, _ := keyParts(p)
			if len(attrs) == 0 {
				return false
			}
			attrs[int(pick)%len(attrs)].Name += "x"
			return true
		})
		changed("a text byte change", func(p *Page) bool {
			_, texts := keyParts(p)
			if len(texts) == 0 {
				return false
			}
			n := texts[int(pick)%len(texts)]
			b := []byte(n.Data)
			b[int(pick)%len(b)] ^= 1
			n.Data = string(b)
			return true
		})
		if _, ok := a.images["a.pxi"]; ok {
			changed("an image byte change", func(p *Page) bool {
				data := slices.Clone(img)
				data[int(pick)%len(data)] ^= 1
				delete(p.images, "a.pxi")
				if r, err := raster.ParseRuns(data); err == nil {
					p.images["a.pxi"] = r
				}
				return true
			})
			changed("removing an image", func(p *Page) bool {
				delete(p.images, "a.pxi")
				return true
			})
		}
	})
}
