package browser

import (
	"crypto/sha256"
	"slices"
	"strings"

	"repro/internal/dom"
	"repro/internal/raster"
	"repro/internal/render"
)

// ScanKey returns a key over the page content that leaves out what no pixel
// outside the page's value holes reads, and those holes. A value hole is
// the interior (the box inset by one pixel) of a visible text-like input
// whose box lies inside the screenshot, is at least GlyphH+4 pixels tall,
// overlaps the box of no other such input, and has a complete non-White
// outline in the screenshot. The key is ContentKey's encoding with each
// element's role in it (a hole, a select, a checkbox or radio, or other)
// and without the value of each hole, the value of each select, and the
// value and checked attributes of each checkbox and radio.
//
// Layout reads none of those attributes, a select paints its first
// option's text, a checkbox or radio its outline alone, and a text-like
// input paints its value at (x+3, y+3) clipped to w-6 pixels, inside its
// interior when the box is at least GlyphH+4 tall. So pages with equal
// ScanKeys have equal holes and screenshots equal at every pixel outside
// them, and the outlines the holes were chosen by lie outside every hole:
// a detection scan of one serves the others through vision's Rescan. The
// holes are in document order, shared, and must not be written. Like
// ContentKey it is computed once per rendering generation.
func (p *Page) ScanKey() ([sha256.Size]byte, []raster.Rect) {
	if !p.hasScanKey {
		nodes, holes := valueHoles(p.Doc, p.Render())
		p.scanKey = contentKey(p.Doc, p.images, func(n *dom.Node) scanRole {
			if len(nodes) > 0 && nodes[0] == n {
				nodes = nodes[1:]
				return roleHole
			}
			return roleOf(n)
		})
		p.holes = holes
		p.hasScanKey = true
	}
	return p.scanKey, p.holes
}

// scanRole is what ScanKey writes for an element: which of its attributes
// no pixel outside the value holes reads.
type scanRole byte

const (
	roleAll    scanRole = iota // every attribute is kept
	roleHole                   // a value hole's input: value is left out
	roleSelect                 // a select: value is left out
	roleCheck                  // a checkbox or radio: value and checked are left out
)

// drops reports whether ScanKey leaves out the attribute name of an
// element in role r.
func (r scanRole) drops(name string) bool {
	switch r {
	case roleHole, roleSelect:
		return name == "value"
	case roleCheck:
		return name == "value" || name == "checked"
	}
	return false
}

// roleOf returns n's role, holes aside.
func roleOf(n *dom.Node) scanRole {
	switch {
	case n.Tag == "select":
		return roleSelect
	case n.Tag != "input":
		return roleAll
	}
	switch inputType(n) {
	case "checkbox", "radio":
		return roleCheck
	}
	return roleAll
}

// inputType is an input's type as render reads it.
func inputType(n *dom.Node) string { return strings.ToLower(n.AttrOr("type", "text")) }

// textLike reports whether render paints the input n with its value as
// text: every type but the checkbox, radio and button kinds.
func textLike(n *dom.Node) bool {
	switch inputType(n) {
	case "checkbox", "radio", "submit", "image", "button":
		return false
	}
	return true
}

// valueHoles returns the inputs of doc whose interiors are value holes of
// its rendering pg, and those interiors, in document order. Overlap is
// judged among the candidates: the visible text-like inputs whose boxes lie
// inside the screenshot and are tall enough.
func valueHoles(doc *dom.Node, pg *render.Page) ([]*dom.Node, []raster.Rect) {
	shot, lay := pg.Screenshot, pg.Layout
	var nodes []*dom.Node
	var boxes []raster.Rect
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag != "input" || !textLike(n) || !lay.Visible(n) {
			return true
		}
		b, _ := lay.Box(n)
		if b.X >= 0 && b.Y >= 0 && b.X+b.W <= shot.W && b.Y+b.H <= shot.H && b.H >= raster.GlyphH+4 && b.W >= 3 {
			nodes, boxes = append(nodes, n), append(boxes, b)
		}
		return true
	})
	var holes []raster.Rect
	kept := nodes[:0]
	for i, b := range boxes {
		if overlapsAnother(boxes, i) || !outlined(shot, b) {
			continue
		}
		kept = append(kept, nodes[i])
		holes = append(holes, raster.R(b.X+1, b.Y+1, b.W-2, b.H-2))
	}
	return kept, holes
}

// overlapsAnother reports whether boxes[i] overlaps another of boxes.
func overlapsAnother(boxes []raster.Rect, i int) bool {
	for j, b := range boxes {
		if j != i && b.Intersects(boxes[i]) {
			return true
		}
	}
	return false
}

// outlined reports whether no pixel on the edge of b, which lies inside
// img, is White.
func outlined(img *raster.Image, b raster.Rect) bool {
	top, bottom := img.Pix[b.Y*img.W+b.X:][:b.W], img.Pix[(b.Y+b.H-1)*img.W+b.X:][:b.W]
	if slices.Contains(top, raster.White) || slices.Contains(bottom, raster.White) {
		return false
	}
	for y := b.Y + 1; y < b.Y+b.H-1; y++ {
		if img.Pix[y*img.W+b.X] == raster.White || img.Pix[y*img.W+b.X+b.W-1] == raster.White {
			return false
		}
	}
	return true
}
