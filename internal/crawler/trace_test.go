package crawler

import (
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// TestSessionTraceRecorded checks that Crawl emits the full span
// hierarchy: one session root, a page span per visited page, and stage
// spans (render at minimum, submit when the ladder ran) nested inside
// pages.
func TestSessionTraceRecorded(t *testing.T) {
	c := newCrawler(t, loginPaymentSite())
	lg := c.Crawl("http://lp.test/")
	if len(lg.Trace) == 0 {
		t.Fatal("session produced no trace")
	}
	if lg.Trace[0].Kind != trace.KindSession || lg.Trace[0].Parent != -1 {
		t.Fatalf("first span is not the session root: %+v", lg.Trace[0])
	}
	counts := map[trace.Kind]int{}
	stages := map[string]int{}
	for i, sp := range lg.Trace {
		counts[sp.Kind]++
		if sp.Kind == trace.KindStage {
			stages[sp.Name]++
		}
		if sp.End <= sp.Start {
			t.Errorf("span %d has non-positive extent: %+v", i, sp)
		}
		switch sp.Kind {
		case trace.KindPage:
			if lg.Trace[sp.Parent].Kind != trace.KindSession {
				t.Errorf("page span %d not parented to the session: %+v", i, sp)
			}
		case trace.KindStage:
			if lg.Trace[sp.Parent].Kind != trace.KindPage {
				t.Errorf("stage span %d not parented to a page: %+v", i, sp)
			}
		}
	}
	if counts[trace.KindSession] != 1 {
		t.Errorf("session spans = %d, want 1", counts[trace.KindSession])
	}
	if counts[trace.KindPage] != len(lg.Pages) {
		t.Errorf("page spans = %d, want %d (one per visited page)", counts[trace.KindPage], len(lg.Pages))
	}
	if stages["render"] != len(lg.Pages) {
		t.Errorf("render spans = %d, want %d", stages["render"], len(lg.Pages))
	}
	if stages["submit"] == 0 {
		t.Error("no submit span recorded for a form flow")
	}
}

// TestSessionTraceByteStable pins the acceptance criterion: the trace for
// a fixed seed is byte-stable — two crawls of the same URL with the same
// FakerSeed marshal to identical JSON.
func TestSessionTraceByteStable(t *testing.T) {
	c := newCrawler(t, loginPaymentSite())
	marshal := func() []byte {
		lg := c.Crawl("http://lp.test/")
		j, err := json.Marshal(lg.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Fatalf("trace not byte-stable:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceRecordedOnNavigationFailure: even a session that dies on
// Navigate exports a well-formed (closed) root span.
func TestTraceRecordedOnNavigationFailure(t *testing.T) {
	c := newCrawler(t)
	lg := c.Crawl("http://nonexistent-host.test/")
	if len(lg.Trace) != 1 {
		t.Fatalf("trace = %+v, want the root span only", lg.Trace)
	}
	if lg.Trace[0].End <= lg.Trace[0].Start {
		t.Fatalf("root span left open: %+v", lg.Trace[0])
	}
}
