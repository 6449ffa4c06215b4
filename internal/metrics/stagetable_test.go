package metrics_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

// The per-stage table is folded at print time by report.StageTable from
// the stage spans the crawler names with metrics.Stage. These tests pin
// its rows from the stage side: one span per observation, one row per
// Stage.

// obs is one observation: a stage span of duration d.
type obs struct {
	st metrics.Stage
	d  time.Duration
}

// observed returns a finished session whose trace holds one stage span
// per observation, in order.
func observed(os ...obs) *crawler.SessionLog {
	lg := &crawler.SessionLog{Trace: []trace.Span{{Kind: trace.KindSession, Name: "s", Parent: -1}}}
	at := time.Duration(0)
	for _, o := range os {
		lg.Trace = append(lg.Trace, trace.Span{Kind: trace.KindStage, Name: o.st.String(), Start: at, End: at + o.d})
		at += o.d
	}
	return lg
}

// rowOf returns the fields of stage's row in table.
func rowOf(t *testing.T, table string, st metrics.Stage) []string {
	t.Helper()
	for _, l := range strings.Split(table, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == st.String() {
			return f
		}
	}
	t.Fatalf("table has no %s row:\n%s", st, table)
	return nil
}

// TestStageTablePercentiles pins the percentile columns of the operator
// table.
func TestStageTablePercentiles(t *testing.T) {
	var o []obs
	for i := 0; i < 9; i++ {
		o = append(o, obs{metrics.StageRender, time.Millisecond})
	}
	o = append(o, obs{metrics.StageRender, 100 * time.Millisecond})
	out := report.StageTable([]*crawler.SessionLog{observed(o...)})
	header := strings.Fields(strings.SplitN(out, "\n", 2)[0])
	if got := strings.Join(header[len(header)-3:], " "); got != "P50 P90 P99" {
		t.Fatalf("table header ends %q, want P50 P90 P99:\n%s", got, out)
	}
	// P50 and P90 of 9x1ms+1x100ms resolve to the 1ms bound, P99 to the
	// 128ms bound (100ms rounds up to its power-of-two bound).
	row := rowOf(t, out, metrics.StageRender)
	if got := strings.Join(row[4:], " "); got != "1ms 1ms 128ms" {
		t.Errorf("render P50/P90/P99 = %q, want \"1ms 1ms 128ms\" in\n%s", got, out)
	}
}

// TestStageTimingsObserve pins per-stage count, total and mean, and the
// zero row of a stage nothing observed.
func TestStageTimingsObserve(t *testing.T) {
	ms := time.Millisecond
	out := report.StageTable([]*crawler.SessionLog{
		observed(obs{metrics.StageRender, 10 * ms}, obs{metrics.StageDetect, 5 * ms}),
		observed(obs{metrics.StageRender, 20 * ms}),
	})
	for _, c := range []struct {
		st   metrics.Stage
		want string // Calls Total Mean
	}{
		{metrics.StageRender, "2 30ms 15ms"},
		{metrics.StageOCR, "0 0s 0s"},
		{metrics.StageDetect, "1 5ms 5ms"},
		{metrics.StageSubmit, "0 0s 0s"},
	} {
		if got := strings.Join(rowOf(t, out, c.st)[1:4], " "); got != c.want {
			t.Errorf("%s calls/total/mean = %q, want %q in\n%s", c.st, got, c.want, out)
		}
	}
	if o := rowOf(t, out, metrics.StageOCR); strings.Join(o[4:], " ") != "0s 0s 0s" {
		t.Errorf("unobserved ocr percentiles = %v, want zero", o[4:])
	}
}
