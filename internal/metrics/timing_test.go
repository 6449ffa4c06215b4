package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageTimingsObserve(t *testing.T) {
	var st StageTimings
	st.Observe(StageRender, 10*time.Millisecond)
	st.Observe(StageRender, 20*time.Millisecond)
	st.Observe(StageDetect, 5*time.Millisecond)

	snap := st.Snapshot()
	if len(snap) != int(numStages) {
		t.Fatalf("snapshot has %d stages, want %d", len(snap), numStages)
	}
	byName := map[string]StageStat{}
	for _, s := range snap {
		byName[s.Stage] = s
	}
	r := byName["render"]
	if r.Count != 2 || r.Total != 30*time.Millisecond || r.Mean() != 15*time.Millisecond {
		t.Errorf("render = %+v", r)
	}
	if d := byName["detect"]; d.Count != 1 || d.Total != 5*time.Millisecond {
		t.Errorf("detect = %+v", d)
	}
	// Unobserved stages are present with zero counts (and zero Mean).
	if o := byName["ocr"]; o.Count != 0 || o.Total != 0 || o.Mean() != 0 {
		t.Errorf("ocr = %+v", o)
	}
}

func TestStageTimingsNilSafe(t *testing.T) {
	var st *StageTimings
	st.Observe(StageOCR, time.Second) // must not panic
	if st.Snapshot() != nil {
		t.Error("nil collector snapshot not nil")
	}
}

func TestStageTimingsConcurrent(t *testing.T) {
	var st StageTimings
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Observe(StageSubmit, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	for _, s := range st.Snapshot() {
		if s.Stage != "submit" {
			continue
		}
		if s.Count != workers*per || s.Total != workers*per*time.Microsecond {
			t.Errorf("submit = %+v", s)
		}
	}
}

func TestStageTableAndNames(t *testing.T) {
	var st StageTimings
	st.Observe(StageSubmit, 2*time.Millisecond)
	out := StageTable(st.Snapshot())
	for _, name := range []string{"render", "ocr", "detect", "submit"} {
		if !strings.Contains(out, name) {
			t.Errorf("table missing stage %q:\n%s", name, out)
		}
	}
	if StageRender.String() != "render" || Stage(99).String() != "stage(99)" {
		t.Error("stage names wrong")
	}
}

func TestMergeStageStats(t *testing.T) {
	a := []StageStat{
		{Stage: "render", Count: 2, Total: 20 * time.Millisecond},
		{Stage: "ocr", Count: 1, Total: time.Millisecond},
	}
	b := []StageStat{
		{Stage: "ocr", Count: 3, Total: 3 * time.Millisecond},
		{Stage: "submit", Count: 5, Total: 5 * time.Millisecond},
	}
	got := MergeStageStats(a, b)
	want := []StageStat{
		{Stage: "render", Count: 2, Total: 20 * time.Millisecond},
		{Stage: "ocr", Count: 4, Total: 4 * time.Millisecond},
		{Stage: "submit", Count: 5, Total: 5 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged = %+v, want %+v", got, want)
	}
	// Inputs must not be mutated (aliasing bug guard).
	if a[1].Count != 1 {
		t.Error("MergeStageStats mutated its input")
	}
	// Empty sides.
	if got := MergeStageStats(nil, b); !reflect.DeepEqual(got, b) {
		t.Errorf("nil+b = %+v", got)
	}
	if got := MergeStageStats(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("a+nil = %+v", got)
	}
}
