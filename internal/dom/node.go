// Package dom implements an HTML document object model: a tokenizer and
// parser that build a mutable tree of nodes, query helpers modeled on the
// browser DOM API, and the lightweight structural DOM hash used by the
// PhishInPatterns crawler to detect page transitions (Section 4.4 of the
// paper).
//
// The parser is intentionally forgiving, in the spirit of real browsers:
// unclosed tags, stray end tags, and attribute quoting variations are all
// accepted, because phishing pages are frequently malformed on purpose to
// confuse naive HTML parsing.
package dom

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType discriminates the kinds of nodes in the tree.
type NodeType int

const (
	// ElementNode is a tag such as <div> or <input>.
	ElementNode NodeType = iota
	// TextNode holds character data.
	TextNode
	// CommentNode holds an HTML comment.
	CommentNode
	// DocumentNode is the synthetic root of a parsed document.
	DocumentNode
	// DoctypeNode records a <!DOCTYPE ...> declaration.
	DoctypeNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DocumentNode:
		return "document"
	case DoctypeNode:
		return "doctype"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Node is a single node in the DOM tree. The zero value is not useful;
// create nodes with NewElement, NewText, or by parsing.
type Node struct {
	Type NodeType

	// Tag is the lower-cased tag name for ElementNode, empty otherwise.
	Tag string
	// Data holds text for TextNode and CommentNode.
	Data string

	// Attrs holds the element attributes in document order.
	Attrs []Attr

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node
}

// Attr is a single name="value" attribute.
type Attr struct {
	Name  string
	Value string
}

// NewElement returns a detached element node with the given tag (lower-cased)
// and optional attributes given as alternating name, value pairs.
func NewElement(tag string, nameValuePairs ...string) *Node {
	n := &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
	for i := 0; i+1 < len(nameValuePairs); i += 2 {
		n.Attrs = append(n.Attrs, Attr{Name: strings.ToLower(nameValuePairs[i]), Value: nameValuePairs[i+1]})
	}
	return n
}

// NewText returns a detached text node.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// Attr returns the value of the named attribute and whether it is present.
// Attribute names are matched case-insensitively.
func (n *Node) Attr(name string) (string, bool) {
	name = strings.ToLower(name)
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(name, value string) {
	name = strings.ToLower(name)
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present.
func (n *Node) RemoveAttr(name string) {
	name = strings.ToLower(name)
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// ID returns the element's id attribute (empty when absent).
func (n *Node) ID() string { return n.AttrOr("id", "") }

// HasClass reports whether the element's class list contains name.
func (n *Node) HasClass(name string) bool {
	for _, c := range strings.Fields(n.AttrOr("class", "")) {
		if c == name {
			return true
		}
	}
	return false
}

// AppendChild attaches child as the last child of n. The child is detached
// from any previous parent first.
func (n *Node) AppendChild(child *Node) {
	if child == nil {
		return
	}
	child.Detach()
	child.Parent = n
	if n.LastChild == nil {
		n.FirstChild = child
		n.LastChild = child
		return
	}
	child.PrevSibling = n.LastChild
	n.LastChild.NextSibling = child
	n.LastChild = child
}

// InsertBefore inserts child immediately before ref, which must be a child of
// n. When ref is nil the child is appended.
func (n *Node) InsertBefore(child, ref *Node) {
	if ref == nil {
		n.AppendChild(child)
		return
	}
	if ref.Parent != n {
		panic("dom: InsertBefore reference node is not a child")
	}
	child.Detach()
	child.Parent = n
	child.NextSibling = ref
	child.PrevSibling = ref.PrevSibling
	if ref.PrevSibling != nil {
		ref.PrevSibling.NextSibling = child
	} else {
		n.FirstChild = child
	}
	ref.PrevSibling = child
}

// Detach removes n from its parent, leaving n as the root of its own subtree.
func (n *Node) Detach() {
	if n.Parent == nil {
		return
	}
	p := n.Parent
	if n.PrevSibling != nil {
		n.PrevSibling.NextSibling = n.NextSibling
	} else {
		p.FirstChild = n.NextSibling
	}
	if n.NextSibling != nil {
		n.NextSibling.PrevSibling = n.PrevSibling
	} else {
		p.LastChild = n.PrevSibling
	}
	n.Parent = nil
	n.PrevSibling = nil
	n.NextSibling = nil
}

// RemoveChildren detaches every child of n.
func (n *Node) RemoveChildren() {
	for n.FirstChild != nil {
		n.FirstChild.Detach()
	}
}

// Children returns the direct children of n as a slice.
func (n *Node) Children() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

// Walk calls fn for every node in the subtree rooted at n in depth-first
// document order (n first). If fn returns false the walk skips that node's
// descendants but continues with its siblings.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.Walk(fn)
	}
}

// Find returns all nodes in the subtree (including n) for which pred is true,
// in document order.
func (n *Node) Find(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindFirst returns the first node in document order satisfying pred, or nil.
func (n *Node) FindFirst(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// ElementsByTag returns every element with the given tag name (case
// insensitive) in document order.
func (n *Node) ElementsByTag(tags ...string) []*Node {
	set := make(map[string]bool, len(tags))
	for _, t := range tags {
		set[strings.ToLower(t)] = true
	}
	return n.Find(func(m *Node) bool {
		return m.Type == ElementNode && set[m.Tag]
	})
}

// ElementByID returns the first element whose id attribute equals id, or nil.
func (n *Node) ElementByID(id string) *Node {
	return n.FindFirst(func(m *Node) bool {
		return m.Type == ElementNode && m.ID() == id
	})
}

// InnerText concatenates all descendant text, collapsing runs of whitespace
// to single spaces and trimming the result, approximating the browser's
// visible innerText for simple documents.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode && (m.Tag == "script" || m.Tag == "style") {
			return false
		}
		if m.Type == TextNode {
			b.WriteString(m.Data)
			b.WriteByte(' ')
		}
		return true
	})
	return strings.Join(strings.Fields(b.String()), " ")
}

// OwnText returns only the text held in direct text-node children.
func (n *Node) OwnText() string {
	var b strings.Builder
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == TextNode {
			b.WriteString(c.Data)
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// AppendInnerText appends exactly what appending InnerText() would — the
// node's whitespace-normalized text, space-separated from b's existing
// content — without materializing the intermediate string. Callers
// assembling descriptions from many nodes share one builder this way.
func (n *Node) AppendInnerText(b *strings.Builder) {
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode && (m.Tag == "script" || m.Tag == "style") {
			return false
		}
		if m.Type == TextNode {
			appendFields(b, m.Data)
		}
		return true
	})
}

// AppendOwnText is AppendInnerText restricted to direct text-node children,
// mirroring OwnText.
func (n *Node) AppendOwnText(b *strings.Builder) {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == TextNode {
			appendFields(b, c.Data)
		}
	}
}

// appendFields writes s's whitespace-separated fields to b, one space
// before each field that doesn't start the builder — the streaming form of
// appending strings.Join(strings.Fields(s), " ").
func appendFields(b *strings.Builder, s string) {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		j := i
		for j < len(s) {
			r2, s2 := utf8.DecodeRuneInString(s[j:])
			if unicode.IsSpace(r2) {
				break
			}
			j += s2
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s[i:j])
		i = j
	}
}

// Ancestors returns the chain of parents from n's parent up to the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Closest returns the nearest ancestor (or n itself) with the given tag, or
// nil when none exists.
func (n *Node) Closest(tag string) *Node {
	tag = strings.ToLower(tag)
	for m := n; m != nil; m = m.Parent {
		if m.Type == ElementNode && m.Tag == tag {
			return m
		}
	}
	return nil
}

// Clone returns a deep copy of the subtree rooted at n. The copy is detached.
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	cp.Attrs = append([]Attr(nil), n.Attrs...)
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		cp.AppendChild(c.Clone())
	}
	return cp
}

// Count returns the number of nodes in the subtree rooted at n.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Path returns a /-separated tag path from the root to n, useful in logs.
func (n *Node) Path() string {
	var parts []string
	for m := n; m != nil; m = m.Parent {
		switch m.Type {
		case ElementNode:
			parts = append(parts, m.Tag)
		case DocumentNode:
			parts = append(parts, "#document")
		}
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}
