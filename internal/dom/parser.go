package dom

import (
	"strings"
)

// voidTags never have children and never receive an end tag.
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedEndTags lists, for each tag, the open tags it implicitly closes when
// encountered (a tiny subset of the HTML5 tree-construction rules, enough for
// real-world-shaped phishing markup).
var impliedEndTags = map[string][]string{
	"li":     {"li"},
	"option": {"option"},
	"tr":     {"tr", "td", "th"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"p":      {"p"},
}

// Parse parses HTML source into a document tree. The returned node has
// Type == DocumentNode. Parse never fails: malformed input produces a
// best-effort tree, mirroring browser behavior.
func Parse(src string) *Node {
	doc := &Node{Type: DocumentNode}
	z := NewTokenizer(src)
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		tok := z.Next()
		if tok.Type == ErrorToken {
			break
		}
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				// Preserve a single space inside elements that may care, but
				// drop pure-whitespace runs elsewhere to keep trees small.
				continue
			}
			top().AppendChild(NewText(tok.Data))
		case CommentToken:
			top().AppendChild(&Node{Type: CommentNode, Data: tok.Data})
		case DoctypeToken:
			doc.AppendChild(&Node{Type: DoctypeNode, Data: tok.Data})
		case SelfClosingTagToken:
			el := &Node{Type: ElementNode, Tag: tok.Tag, Attrs: tok.Attrs}
			top().AppendChild(el)
		case StartTagToken:
			// Apply implied end tags.
			if closes, ok := impliedEndTags[tok.Tag]; ok {
				for _, c := range closes {
					if top().Type == ElementNode && top().Tag == c {
						stack = stack[:len(stack)-1]
						break
					}
				}
			}
			el := &Node{Type: ElementNode, Tag: tok.Tag, Attrs: tok.Attrs}
			top().AppendChild(el)
			if !voidTags[tok.Tag] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the matching open tag if one exists; otherwise ignore.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Tag {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// Body returns the <body> element of a parsed document, or the document
// itself when no body element exists.
func Body(doc *Node) *Node {
	if b := doc.FindFirst(func(n *Node) bool { return n.Type == ElementNode && n.Tag == "body" }); b != nil {
		return b
	}
	return doc
}

// Title returns the document title text, or empty.
func Title(doc *Node) string {
	t := doc.FindFirst(func(n *Node) bool { return n.Type == ElementNode && n.Tag == "title" })
	if t == nil {
		return ""
	}
	return t.InnerText()
}

// Render serializes the subtree rooted at n back to HTML. Round-tripping is
// not byte-exact (whitespace and entity forms normalize) but is structurally
// faithful.
func Render(n *Node) string {
	var b strings.Builder
	renderTo(&b, n)
	return b.String()
}

func renderTo(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			renderTo(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!")
		b.WriteString(n.Data)
		b.WriteString(">")
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case TextNode:
		b.WriteString(Escape(n.Data))
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(Escape(a.Value))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		if voidTags[n.Tag] {
			return
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			renderTo(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
