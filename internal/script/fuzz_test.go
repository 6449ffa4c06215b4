package script

import (
	"encoding/json"
	"testing"

	"repro/internal/dom"
)

// FuzzExtract feeds arbitrary page markup to the behaviour parser, which
// reads attacker-written JSON out of every crawled page. Extract must not
// panic, and a behaviour it accepts must survive Marshal: the script
// element Marshal writes, parsed back out of a page, extracts to a
// behaviour with the same JSON. The queries the browser makes of a
// behaviour must not panic either. The seed corpus in testdata/fuzz holds
// keyloggers of every tier, swaps whose HTML carries scripts, click zones
// at extreme coordinates, malformed and mistyped JSON, duplicate and
// unclosed script elements, entities and invalid UTF-8.
func FuzzExtract(f *testing.F) {
	f.Add(`<script type="application/x-behavior">{"listeners":[{"target":"input","event":"keydown","action":"send-data"}]}</script>`)
	f.Fuzz(func(t *testing.T, s string) {
		b, err := Extract(dom.Parse(s))
		if err != nil {
			return
		}
		b.KeyloggerTier()
		b.ZoneAt(0, 0)
		b.SwapFor("next")
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal %+v: %v", b, err)
		}
		tag, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Extract(dom.Parse("<html><body>" + tag + "</body></html>"))
		if err != nil {
			t.Fatalf("re-extract %s: %v", tag, err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("behaviour changed through Marshal:\n got %s\nwant %s", got, want)
		}
	})
}
