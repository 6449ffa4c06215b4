package crawler

import (
	"strings"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/metrics"
	"repro/internal/ocr"
	"repro/internal/raster"
	"repro/internal/textclass"
	"repro/internal/trace"
)

// ocrSearchDist is the pixel distance (left and above the input box) the
// OCR label search covers, the "threshold distance, measured in pixels" of
// Section 4.1.
const ocrSearchDist = 150

// FieldInfo is the output of input-field identification for one element:
// everything Section 4.1 collects before classification.
type FieldInfo struct {
	Node *dom.Node
	// Box is the rendering bounding box.
	Box raster.Rect
	// Description is the assembled text describing what the field asks
	// for: node properties, neighbour text, and OCR results when needed.
	Description string
	// HTMLType is the element's type attribute.
	HTMLType string
	// UsedOCR marks fields whose description required visual analysis
	// because DOM analysis yielded nothing useful (the 27% measurement).
	UsedOCR bool
	// ocrLen is the length of the untrimmed OCR text, the OCR span's work
	// cost, which a memo hit replays.
	ocrLen int
}

// identifyFields runs Section 4.1 over a page: find the visible inputs,
// assemble each one's description from DOM context, and fall back to OCR on
// the rendered page when the DOM is uninformative. A nil engine disables
// the OCR fallback (the DOM-only ablation). A page whose content the memo
// has identified before gets the same fields, rebound to its own nodes,
// and the same OCR spans, without being rendered.
func (c *Crawler) identifyFields(p *browser.Page, eng *ocr.Engine, tr *trace.Session) []FieldInfo {
	k, e := c.memoLookup(p)
	if e.hasFields {
		return replayFields(p, e.fields, tr)
	}
	lay := p.Render().Layout
	var out []FieldInfo
	for _, n := range p.VisibleInputs() {
		box, _ := lay.Box(n)
		info := FieldInfo{
			Node:     n,
			Box:      box,
			HTMLType: strings.ToLower(n.AttrOr("type", "")),
		}
		desc := domDescription(p.Doc, n)
		if !textclass.HasTokens(desc) && eng != nil {
			// DOM analysis found nothing useful: visual analysis of the
			// regions to the left and above the box (Figure 3 defence).
			// The page's cached ink mask is shared across every field's
			// label search on this rendering.
			span := tr.Begin(trace.KindStage, metrics.StageOCR.String())
			desc = eng.TextNearMask(p.OCRMask(), box, ocrSearchDist)
			// The OCR work cost scales with how much label text the visual
			// search had to read.
			info.ocrLen = len(desc)
			tr.Advance(1 + info.ocrLen)
			tr.End(span)
			info.UsedOCR = true
		}
		info.Description = strings.TrimSpace(desc)
		out = append(out, info)
	}
	c.memoStore(k, func(e *memoEntry) {
		e.fields, e.hasFields = memoFields(p, out), true
	})
	return out
}

// memoFields records fields by their index among p's input and select
// elements, in which VisibleInputs returns them.
func memoFields(p *browser.Page, fields []FieldInfo) []memoField {
	all := p.Doc.ElementsByTag("input", "select")
	out := make([]memoField, len(fields))
	j := 0
	for i, f := range fields {
		for all[j] != f.Node {
			j++
		}
		f.Node = nil
		out[i] = memoField{index: j, info: f}
	}
	return out
}

// replayFields rebinds memoized fields to p's nodes and replays their OCR
// spans with the work costs they were recorded with.
func replayFields(p *browser.Page, fields []memoField, tr *trace.Session) []FieldInfo {
	if len(fields) == 0 {
		return nil
	}
	all := p.Doc.ElementsByTag("input", "select")
	out := make([]FieldInfo, len(fields))
	for i, f := range fields {
		if f.info.UsedOCR {
			span := tr.Begin(trace.KindStage, metrics.StageOCR.String())
			tr.Advance(1 + f.info.ocrLen)
			tr.End(span)
		}
		out[i] = f.info
		out[i].Node = all[f.index]
	}
	return out
}

// domDescription assembles the field's description from DOM context only:
// its own properties, the form it belongs to, label elements, and
// neighbouring text nodes (Section 4.1 steps 1-2).
func domDescription(doc *dom.Node, n *dom.Node) string {
	// One builder accumulates every part, space-separated — the streaming
	// equivalent of collecting parts and strings.Join-ing them. Parts are
	// trimmed but otherwise appended verbatim (matching the historical
	// join), while node text goes through the Append helpers, which write
	// the same bytes InnerText/OwnText would contribute.
	var b strings.Builder
	add := func(s string) {
		s = strings.TrimSpace(s)
		if s == "" {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s)
	}
	// Node properties.
	add(splitIdent(n.AttrOr("name", "")))
	add(splitIdent(n.ID()))
	add(n.AttrOr("placeholder", ""))
	add(n.AttrOr("aria-label", ""))
	if t := n.AttrOr("type", ""); t != "" && t != "text" {
		add(t)
	}
	// label element bound via for=.
	if id := n.ID(); id != "" {
		if lbl, err := dom.QueryFirst(doc, `label[for="`+id+`"]`); err == nil && lbl != nil {
			lbl.AppendInnerText(&b)
		}
	}
	// Enclosing label.
	if lbl := n.Closest("label"); lbl != nil {
		lbl.AppendInnerText(&b)
	}
	// Select options hint at the data type (state lists, month lists).
	if n.Tag == "select" {
		opts := n.ElementsByTag("option")
		for i, o := range opts {
			if i >= 2 {
				break
			}
			o.AppendInnerText(&b)
		}
	}
	// Preceding siblings: the label usually sits just before the input.
	for sib, hops := n.PrevSibling, 0; sib != nil && hops < 3; sib, hops = sib.PrevSibling, hops+1 {
		switch sib.Type {
		case dom.TextNode:
			add(sib.Data)
		case dom.ElementNode:
			if sib.Tag == "label" || sib.Tag == "span" || sib.Tag == "div" || sib.Tag == "b" || sib.Tag == "p" {
				sib.AppendInnerText(&b)
			}
		}
	}
	// Parent's own text (text nodes directly inside the wrapper).
	if n.Parent != nil {
		n.Parent.AppendOwnText(&b)
	}
	return b.String()
}

// splitIdent breaks identifier-style strings (card_number, cardNumber,
// card-number) into words.
func splitIdent(s string) string {
	if s == "" {
		return ""
	}
	var b strings.Builder
	prevLower := false
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == '.' || r == '[' || r == ']':
			b.WriteByte(' ')
			prevLower = false
		case r >= 'A' && r <= 'Z':
			if prevLower {
				b.WriteByte(' ')
			}
			b.WriteRune(r + ('a' - 'A'))
			prevLower = false
		default:
			b.WriteRune(r)
			prevLower = r >= 'a' && r <= 'z'
		}
	}
	return b.String()
}
