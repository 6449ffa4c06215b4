package metrics

import "testing"

func TestStageNames(t *testing.T) {
	for i, name := range []string{"render", "ocr", "detect", "submit"} {
		if got := Stage(i).String(); got != name {
			t.Errorf("Stage(%d) = %q, want %q", i, got, name)
		}
		if st, ok := StageByName(name); !ok || st != Stage(i) {
			t.Errorf("StageByName(%q) = %v, %v", name, st, ok)
		}
	}
	if Stage(99).String() != "stage(99)" {
		t.Errorf("Stage(99) = %q", Stage(99).String())
	}
	if _, ok := StageByName("paint"); ok {
		t.Error("StageByName accepted an unknown name")
	}
}
