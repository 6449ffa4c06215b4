package browser

import (
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/raster"
)

// sameOutside reports whether a and b render screenshots of one size that
// are equal at every pixel outside holes.
func sameOutside(a, b *Page, holes []raster.Rect) bool {
	sa, sb := a.Screenshot(), b.Screenshot()
	if sa.W != sb.W || sa.H != sb.H {
		return false
	}
	for y := 0; y < sa.H; y++ {
		for x := 0; x < sa.W; x++ {
			if sa.Pix[y*sa.W+x] == sb.Pix[y*sb.W+x] {
				continue
			}
			inHole := false
			for _, h := range holes {
				inHole = inHole || h.Contains(x, y)
			}
			if !inHole {
				return false
			}
		}
	}
	return true
}

// typeAll sets every attribute ScanKey leaves out of p's key to v: the
// value of each value hole's input and each select, and the value and
// checked attributes of each checkbox and radio.
func typeAll(p *Page, v string) {
	nodes, _ := valueHoles(p.Doc, p.Render())
	p.Doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch {
		case slices.Contains(nodes, n), roleOf(n) == roleSelect:
			n.SetAttr("value", v)
		case roleOf(n) == roleCheck:
			n.SetAttr("value", v)
			n.SetAttr("checked", v)
		}
		return true
	})
	p.MarkDirty()
}

// keptAttrs returns the attributes of p that ScanKey keeps, in walk order.
func keptAttrs(p *Page) []*dom.Attr {
	nodes, _ := valueHoles(p.Doc, p.Render())
	var attrs []*dom.Attr
	p.Doc.Walk(func(n *dom.Node) bool {
		role := roleAll
		if n.Type == dom.ElementNode {
			role = roleOf(n)
			if slices.Contains(nodes, n) {
				role = roleHole
			}
		}
		for i := range n.Attrs {
			if !role.drops(n.Attrs[i].Name) {
				attrs = append(attrs, &n.Attrs[i])
			}
		}
		return true
	})
	return attrs
}

// FuzzScanKey checks that Page.ScanKey identifies what a rendering reads
// outside its value holes. Typing a value into every hole input and
// select, and checking every checkbox and radio, keeps the key and the
// holes, and changes no pixel outside the holes. Pages with equal keys
// (a second fuzzed document, and the first reparsed from its own
// serialization) have equal holes and render equal pixels outside them.
// And a change to one attribute the key keeps (its name or value), one
// text byte or one image byte, or the removal of an image, changes the
// key once MarkDirty has invalidated it.
func FuzzScanKey(f *testing.F) {
	logo := raster.New(12, 5, raster.White)
	logo.Fill(raster.R(2, 1, 8, 3), raster.Blue)
	form := `<html><body><form><div><label>Email</label><input name="email" value="a@b.c"></div>
<div><label>Password</label><input type="password" name="pw"></div>
<div><select name="c"><option>US</option><option>CA</option></select></div>
<div><input name="phone" style="height:9px" value="555"></div>
<div><input type="checkbox" name="agree"> I agree</div><img src="a.pxi">
<input type="submit" value="Go"></form></body></html>`
	f.Add(form, `<html><body><div><label>Email</label><input name="email"></div></body></html>`,
		"4111 1111 1111 1111", raster.Encode(logo), uint16(3))
	// Two inputs laid out on one spot: neither is a hole.
	f.Add(`<div style="background:navy"><input style="height:20px;width:40px" value="x"></div><label><input value="y"></label>`,
		`<div style="background:navy"><input style="height:20px;width:40px" value="z"></div>`,
		"wide value typed past the box", []byte("PXI1"), uint16(1))
	// A select's value, a radio's checked, a hidden input's value.
	f.Add(`<select value="1"><option>a</option></select><input type="RADIO" checked><input type="hidden" value="h">`,
		`<select value="2"><option>a</option></select><input type="RADIO"><input type="hidden" value="h">`,
		"", []byte{}, uint16(2))
	f.Fuzz(func(t *testing.T, html, other, value string, img []byte, pick uint16) {
		images := map[string][]byte{"a.pxi": img}
		a := keyPage(html, images)
		key, holes := a.ScanKey()
		if again, _ := keyPage(html, images).ScanKey(); again != key {
			t.Fatal("the same content scan-keyed twice differently")
		}

		typed := keyPage(html, images)
		typeAll(typed, value)
		if k, h := typed.ScanKey(); k != key || !slices.Equal(h, holes) {
			t.Fatalf("typing %q changed the key or the holes %v -> %v:\n%q", value, holes, h, dom.Render(typed.Doc))
		}
		if !sameOutside(a, typed, holes) {
			t.Fatalf("typing %q changed pixels outside the holes %v:\n%q", value, holes, dom.Render(typed.Doc))
		}
		for _, b := range []*Page{keyPage(other, images), keyPage(dom.Render(a.Doc), images)} {
			if k, h := b.ScanKey(); k == key && (!slices.Equal(h, holes) || !sameOutside(a, b, holes)) {
				t.Fatalf("equal keys, different holes %v, %v or pixels outside them:\n%q\n%q", holes, h, dom.Render(a.Doc), dom.Render(b.Doc))
			}
		}

		changed := func(what string, mutate func(p *Page) bool) {
			t.Helper()
			p := keyPage(html, images)
			p.ScanKey() // cached before the change
			if !mutate(p) {
				return
			}
			p.MarkDirty()
			if k, _ := p.ScanKey(); k == key {
				t.Errorf("%s left the key unchanged", what)
			}
		}
		changed("a kept attribute value change", func(p *Page) bool {
			attrs := keptAttrs(p)
			if len(attrs) == 0 {
				return false
			}
			attrs[int(pick)%len(attrs)].Value += "x"
			return true
		})
		changed("a kept attribute name change", func(p *Page) bool {
			attrs := keptAttrs(p)
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
