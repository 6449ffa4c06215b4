// Package script defines the declarative page-behaviour model that stands in
// for JavaScript in this system. Real phishing pages ship JS that registers
// event listeners (including keyloggers), swaps page content in place, and
// wires up non-standard submit mechanisms; here those behaviours are encoded
// as a JSON document embedded in the page inside a
// <script type="application/x-behavior"> element. The browser package parses
// the document at load time — the moment at which the paper's crawler
// records the page's addEventListener calls (Section 4.5) — and interprets
// the behaviours when the crawler types, clicks, or submits.
package script

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/dom"
)

// BehaviorType is the MIME type of behaviour script elements.
const BehaviorType = "application/x-behavior"

// Actions a listener can take when its event fires.
const (
	// ActionStore records the keystroke in page state (classic keylogger
	// buffering — the first measurement tier of Section 5.1.3).
	ActionStore = "store"
	// ActionSend issues a network request when data is entered, without the
	// data itself (second tier).
	ActionSend = "send"
	// ActionSendData issues a network request carrying the entered data
	// before any submit action (third tier: true pre-submit exfiltration).
	ActionSendData = "send-data"
)

// Listener is one addEventListener registration.
type Listener struct {
	// Target is the tag name the listener attaches to ("input", "button",
	// "document").
	Target string `json:"target"`
	// Event is the DOM event name ("keydown", "click", ...).
	Event string `json:"event"`
	// Action is what the handler does (ActionStore, ActionSend,
	// ActionSendData, or a free-form label for benign handlers).
	Action string `json:"action"`
	// Endpoint is the URL network requests go to for send actions; defaults to
	// "/k" on the page's host.
	Endpoint string `json:"endpoint,omitempty"`
}

// Swap replaces the page body when a trigger element is clicked, changing
// the page without changing the URL — the dynamic-content case the DOM hash
// of Section 4.4 exists to catch.
type Swap struct {
	// TriggerID is the id of the element whose click performs the swap.
	TriggerID string `json:"trigger"`
	// HTML is the replacement body content.
	HTML string `json:"html"`
}

// ClickZone maps a visual region to an action, modelling canvas/SVG submit
// "tricks" (Section 4.3): the pixels look like a button but no DOM button
// exists, so only coordinate-based clicking activates it.
type ClickZone struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
	// Action is "submit" (submit the form FormID) or "nav" (go to Href).
	Action string `json:"action"`
	FormID string `json:"form,omitempty"`
	Href   string `json:"href,omitempty"`
}

// Behavior is the full behaviour document of one page.
type Behavior struct {
	Listeners  []Listener  `json:"listeners,omitempty"`
	Swaps      []Swap      `json:"swaps,omitempty"`
	ClickZones []ClickZone `json:"clickzones,omitempty"`
}

// Empty reports whether the behaviour document declares nothing.
func (b Behavior) Empty() bool {
	return len(b.Listeners) == 0 && len(b.Swaps) == 0 && len(b.ClickZones) == 0
}

// KeyloggerTier returns the strongest keylogging behaviour declared:
// 0 none, 1 store, 2 send (request on entry), 3 send-data (data exfiltrated
// pre-submit). These are the three nested measurements of Section 5.1.3.
func (b Behavior) KeyloggerTier() int {
	tier := 0
	for _, l := range b.Listeners {
		if l.Event != "keydown" {
			continue
		}
		switch l.Action {
		case ActionStore:
			if tier < 1 {
				tier = 1
			}
		case ActionSend:
			if tier < 2 {
				tier = 2
			}
		case ActionSendData:
			tier = 3
		}
	}
	return tier
}

// SwapFor returns the swap triggered by the element id, if any.
func (b Behavior) SwapFor(id string) (Swap, bool) {
	for _, s := range b.Swaps {
		if s.TriggerID == id {
			return s, true
		}
	}
	return Swap{}, false
}

// ZoneAt returns the click zone containing (x, y), if any.
func (b Behavior) ZoneAt(x, y int) (ClickZone, bool) {
	for _, z := range b.ClickZones {
		if x >= z.X && x < z.X+z.W && y >= z.Y && y < z.Y+z.H {
			return z, true
		}
	}
	return ClickZone{}, false
}

// Marshal renders the behaviour as its embedded script element.
func (b Behavior) Marshal() (string, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("script: %w", err)
	}
	return fmt.Sprintf(`<script type="%s">%s</script>`, BehaviorType, data), nil
}

// Extract parses the first behaviour script element in the document. Pages
// without one get a zero Behavior, never an error.
func Extract(doc *dom.Node) (Behavior, error) {
	var b Behavior
	node := doc.FindFirst(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.Tag == "script" &&
			strings.EqualFold(n.AttrOr("type", ""), BehaviorType)
	})
	if node == nil {
		return b, nil
	}
	raw := strings.TrimSpace(node.OwnText())
	if raw == "" {
		return b, nil
	}
	if err := json.Unmarshal([]byte(raw), &b); err != nil {
		return Behavior{}, fmt.Errorf("script: parsing behavior: %w", err)
	}
	return b, nil
}

// ExternalScripts returns the src URLs of conventional script elements —
// what DOM analysis inspects to recognize known CAPTCHA libraries
// (Section 5.3.2).
func ExternalScripts(doc *dom.Node) []string {
	var out []string
	for _, s := range doc.ElementsByTag("script") {
		if src, ok := s.Attr("src"); ok && src != "" {
			out = append(out, src)
		}
	}
	return out
}
