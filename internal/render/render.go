// Package render paints a laid-out DOM into a raster image — the system's
// screenshot pipeline. It honours the style subset the corpus uses:
// background colors and images, text color, hidden elements, and the visual
// chrome of interactive elements (input boxes, buttons, selects). Crucially,
// background images are composited into the raster, so label text that
// exists only inside an image (the Figure 3 evasion) appears in the
// screenshot and nowhere in the DOM.
package render

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/layout"
	"repro/internal/raster"
)

// Page couples a screenshot with the layout it was produced from.
type Page struct {
	Screenshot *raster.Image
	Layout     *layout.Result
}

// Render lays out and paints doc at the given viewport width. resolve
// fetches an image resource by URL (or data URI) as anything raster can
// paint: the browser hands over validated Runs, painted straight into the
// screenshot. A nil image means the image is unavailable; a gray
// placeholder is drawn. resolve may be nil when the document references no
// images (the type argument must then be given). The screenshot and layout draw
// their storage from pools; callers that fully own the Page may hand the
// storage back with Release, and callers that don't simply let the GC have
// it — contents are identical either way.
func Render[P raster.Painter](doc *dom.Node, viewportW int, resolve func(url string) P) *Page {
	lay := layout.Compute(doc, viewportW)
	h := lay.Height
	if h < 200 {
		h = 200
	}
	if h > 4000 {
		h = 4000
	}
	img := raster.Get(viewportW, h, raster.White)
	body := dom.Body(doc)
	paint(img, lay, body, resolve)
	return &Page{Screenshot: img, Layout: lay}
}

// Release returns the Page's screenshot buffer and layout maps to their
// pools. The Page, its Screenshot, and its Layout must not be used
// afterwards, and no live view of the screenshot's pixels may remain — the
// caller asserts sole ownership. Optional: an unreleased Page is collected
// normally.
func (p *Page) Release() {
	if p == nil {
		return
	}
	p.Screenshot.Release()
	p.Layout.Release()
	p.Screenshot, p.Layout = nil, nil
}

func paint[P raster.Painter](img *raster.Image, lay *layout.Result, n *dom.Node, resolve func(string) P) {
	style := lay.Style(n)
	if style.Display == "none" {
		return
	}
	box, ok := lay.Box(n)
	if ok && !style.Hidden && n.Type == dom.ElementNode {
		paintElement(img, lay, n, box, style, resolve)
	}
	if ok && !style.Hidden && n.Type == dom.TextNode {
		paintText(img, n.Data, box, style.Color)
	}
	// Buttons and selects paint their own labels; their descendants must
	// not be painted again via text-node traversal.
	if n.Type == dom.ElementNode && (n.Tag == "button" || n.Tag == "select") {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		paint(img, lay, c, resolve)
	}
}

func paintElement[P raster.Painter](img *raster.Image, lay *layout.Result, n *dom.Node, box raster.Rect, style layout.Style, resolve func(string) P) {
	// Background color.
	if style.HasBackground {
		img.Fill(box, style.Background)
	}
	// Background image.
	if style.BackgroundImage != "" && resolve != nil {
		if bg := resolve(style.BackgroundImage); bg != nil {
			bg.PaintAt(img, box.X, box.Y)
		}
	}
	switch n.Tag {
	case "input":
		t := strings.ToLower(n.AttrOr("type", "text"))
		switch t {
		case "checkbox", "radio":
			img.Outline(box, raster.Gray)
		case "submit", "image", "button":
			img.Fill(box, raster.LightGray)
			img.Outline(box, raster.Gray)
			label := n.AttrOr("value", "Submit")
			drawCentered(img, label, box, raster.Black)
		default:
			img.Fill(box, raster.White)
			img.Outline(box, raster.Gray)
			val := n.AttrOr("value", "")
			if val != "" {
				if t == "password" {
					val = strings.Repeat("*", len(val))
				}
				img.DrawString(clipTo(val, box.W-6), box.X+3, box.Y+3, raster.Black)
			} else if ph := n.AttrOr("placeholder", ""); ph != "" {
				img.DrawString(clipTo(ph, box.W-6), box.X+3, box.Y+3, raster.Gray)
			}
		}
	case "select":
		img.Fill(box, raster.White)
		img.Outline(box, raster.Gray)
		label := ""
		if opt := n.FindFirst(func(m *dom.Node) bool { return m.Tag == "option" }); opt != nil {
			label = opt.InnerText()
		}
		img.DrawString(clipTo(label, box.W-14), box.X+3, box.Y+3, raster.Black)
		img.DrawString("v", box.X+box.W-9, box.Y+3, raster.Black)
	case "button":
		bg := raster.LightGray
		if style.HasBackground {
			bg = style.Background
		}
		img.Fill(box, bg)
		img.Outline(box, raster.Gray)
		fg := style.Color
		if bg == raster.Navy || bg == raster.Black || bg == raster.Blue || bg == raster.Maroon {
			fg = raster.White
		}
		drawCentered(img, n.InnerText(), box, fg)
	case "img":
		src := n.AttrOr("src", "")
		var im P
		if resolve != nil && src != "" {
			im = resolve(src)
		}
		if im != nil {
			im.PaintAt(img, box.X, box.Y)
		} else {
			img.Fill(box, raster.LightGray)
			img.Outline(box, raster.Gray)
		}
	case "a":
		// Text is painted via the child text node with the link color; the
		// box may also be styled as a button via background.
		if style.HasBackground {
			img.Fill(box, style.Background)
			img.Outline(box, raster.Gray)
		}
	case "hr":
		img.Fill(raster.R(box.X, box.Y, box.W, 1), raster.Gray)
	case "canvas", "svg":
		// Canvas/SVG submit "tricks": paint whatever text the element
		// carries in a data-label attribute so it is visually present while
		// absent from DOM button analysis.
		if style.HasBackground {
			img.Fill(box, style.Background)
		} else {
			img.Fill(box, raster.LightGray)
		}
		img.Outline(box, raster.Gray)
		drawCentered(img, n.AttrOr("data-label", ""), box, raster.Black)
	}
}

func paintText(img *raster.Image, text string, box raster.Rect, fg raster.Color) {
	text = raster.CollapseSpace(text)
	if text == "" {
		return
	}
	y := box.Y
	maxY := box.Y + box.H + raster.LineH
	raster.WrapEach(text, box.W, func(line string) {
		if y+raster.GlyphH > maxY {
			return
		}
		img.DrawString(line, box.X, y, fg)
		y += raster.LineH
	})
}

func drawCentered(img *raster.Image, label string, box raster.Rect, fg raster.Color) {
	label = clipTo(strings.TrimSpace(label), box.W-4)
	tw := raster.StringWidth(label)
	x := box.X + (box.W-tw)/2
	y := box.Y + (box.H-raster.GlyphH)/2
	if y < box.Y {
		y = box.Y
	}
	img.DrawString(label, x, y, fg)
}

// clipTo truncates s so it fits within w pixels.
func clipTo(s string, w int) string {
	maxChars := w / raster.AdvanceX
	if maxChars <= 0 {
		return ""
	}
	if len(s) <= maxChars {
		return s
	}
	return s[:maxChars]
}
