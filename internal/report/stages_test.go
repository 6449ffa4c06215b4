package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/trace"
)

// stageLog fabricates a finished session whose trace holds one span of
// kind per duration, all named name.
func stageLog(kind trace.Kind, name string, ds ...time.Duration) *crawler.SessionLog {
	lg := &crawler.SessionLog{Trace: []trace.Span{{Kind: trace.KindSession, Name: "s", Parent: -1}}}
	at := time.Duration(0)
	for _, d := range ds {
		lg.Trace = append(lg.Trace, trace.Span{Kind: kind, Name: name, Start: at, End: at + d})
		at += d
	}
	return lg
}

// stageRow returns the fields of name's row in a StageTable.
func stageRow(t *testing.T, table, name string) []string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	t.Fatalf("no %s row in\n%s", name, table)
	return nil
}

const zeroStageTable = `Stage       Calls        Total         Mean        P50        P90        P99
render          0           0s           0s         0s         0s         0s
ocr             0           0s           0s         0s         0s         0s
detect          0           0s           0s         0s         0s         0s
submit          0           0s           0s         0s         0s         0s
`

func TestStageTable(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		logs []*crawler.SessionLog
		want string
	}{
		{"nil logs", nil, zeroStageTable},
		{"empty and lost logs", []*crawler.SessionLog{nil, {}, {Outcome: "attributed"}}, zeroStageTable},
		{"non-stage spans and unknown names", []*crawler.SessionLog{
			stageLog(trace.KindPage, "render", 5*ms),
			stageLog(trace.KindSession, "ocr", 5*ms),
			stageLog(trace.KindStage, "paint", 5*ms),
			stageLog(trace.KindStage, "Render", 5*ms),
		}, zeroStageTable},
		{"rows in stage order, totals and means", []*crawler.SessionLog{
			stageLog(trace.KindStage, "submit", 2*ms),
			stageLog(trace.KindStage, "render", ms, ms, ms, ms, ms, ms, ms, ms, ms),
			nil,
			stageLog(trace.KindStage, "render", 100*ms),
			stageLog(trace.KindStage, "detect", 1500*time.Microsecond, 1500*time.Microsecond+1),
		}, `Stage       Calls        Total         Mean        P50        P90        P99
render         10        109ms       10.9ms        1ms        1ms      128ms
ocr             0           0s           0s         0s         0s         0s
detect          2          3ms        1.5ms        2ms        2ms        2ms
submit          1          2ms          2ms        2ms        2ms        2ms
`},
	}
	for _, c := range cases {
		if got := StageTable(c.logs); got != c.want {
			t.Errorf("%s: StageTable =\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// TestStageTableRank pins the percentile rule: P_q is the bound of the
// rank-ceil(q·n) span in ascending order, the rank clamped to [1, n].
func TestStageTableRank(t *testing.T) {
	ms := time.Millisecond
	var tenDoubling, hundred, tail []time.Duration
	for i := 0; i < 10; i++ {
		tenDoubling = append(tenDoubling, ms<<i) // 1ms .. 512ms
	}
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, time.Duration(i)*ms)
	}
	for i := 0; i < 99; i++ {
		tail = append(tail, ms)
	}
	tail = append(tail, 300*ms)
	cases := []struct {
		name          string
		ds            []time.Duration
		p50, p90, p99 string
	}{
		{"n=1", []time.Duration{3 * ms}, "4ms", "4ms", "4ms"},
		// Ranks 5, 9 and 10 of 1ms<<0..9.
		{"n=10", tenDoubling, "16ms", "256ms", "512ms"},
		// Ranks 50, 90 and 99 of 1..100ms.
		{"n=100", hundred, "64ms", "128ms", "128ms"},
		// 99 fast and 1 slow: rank 99 is still fast.
		{"n=100 tail", tail, "1ms", "1ms", "1ms"},
	}
	for _, c := range cases {
		// Fed in descending order: the fold must sort.
		rev := make([]time.Duration, len(c.ds))
		for i, d := range c.ds {
			rev[len(rev)-1-i] = d
		}
		row := stageRow(t, StageTable([]*crawler.SessionLog{stageLog(trace.KindStage, "ocr", rev...)}), "ocr")
		if got := [3]string{row[4], row[5], row[6]}; got != [3]string{c.p50, c.p90, c.p99} {
			t.Errorf("%s: P50/P90/P99 = %v, want [%s %s %s]", c.name, got, c.p50, c.p90, c.p99)
		}
	}
	if got := stageQuantile(tail, 1); got != 512*ms {
		t.Errorf("tail p100 = %v, want 512ms", got)
	}
	// The rank is clamped to [1, n].
	for q, want := range map[float64]time.Duration{-1: ms, 0: ms, 2: 8 * ms} {
		if got := stageQuantile([]time.Duration{ms, 5 * ms}, q); got != want {
			t.Errorf("q=%v: %v, want %v", q, got, want)
		}
	}
}

// TestStageTableBounds pins the percentile bounds at and around every
// power-of-two millisecond: 1ms<<i reads as itself, one nanosecond more
// as the next bound, and everything from 1ms<<27 on as 1ms<<27.
func TestStageTableBounds(t *testing.T) {
	const last = time.Millisecond << 27
	cases := []struct{ d, want time.Duration }{
		{-time.Second, time.Millisecond},
		{0, time.Millisecond},
		{time.Nanosecond, time.Millisecond},
		{3 * time.Millisecond, 4 * time.Millisecond},
		{1025 * time.Millisecond, 2048 * time.Millisecond},
		{last + time.Hour, last},
		{1 << 62, last},
	}
	for i := 0; i < 28; i++ {
		b := time.Millisecond << i
		next := min(b<<1, last)
		cases = append(cases, struct{ d, want time.Duration }{b, b}, struct{ d, want time.Duration }{b + 1, next})
	}
	for _, c := range cases {
		if got := msBound(c.d); got != c.want {
			t.Errorf("msBound(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	// The same bounds reach the printed table.
	row := stageRow(t, StageTable([]*crawler.SessionLog{stageLog(trace.KindStage, "detect", last+time.Hour)}), "detect")
	if row[4] != last.String() {
		t.Errorf("P50 beyond the last bound = %s, want %s", row[4], last)
	}
}
