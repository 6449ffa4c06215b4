package dom

import "testing"

// FuzzParse checks that Parse never panics on arbitrary markup and that
// serializing the tree and parsing it again keeps its StructureHash, the
// page-transition signal the crawler compares across renderings. The seed
// corpus in testdata/fuzz holds implied and stray end tags, void tags,
// comments, quoted attributes with entities, and deep nesting.
func FuzzParse(f *testing.F) {
	f.Add(`<form><div class="row"><label for="u">User</label><input id="u" name="user"></div><button>Go</button></form>`)
	f.Fuzz(func(t *testing.T, s string) {
		doc := Parse(s)
		again := Parse(Render(doc))
		if got, want := StructureHash(again), StructureHash(doc); got != want {
			t.Fatalf("Parse(Render(Parse(s))) shape %q, want %q", StructureString(again), StructureString(doc))
		}
	})
}
