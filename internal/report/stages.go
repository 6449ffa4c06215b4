package report

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// StageTable folds the stage spans of finished sessions into the
// per-stage breakdown phishcrawl and phishreport print: one row per stage
// in the order render, ocr, detect, submit (all four, even at zero), with
// call count, total and mean duration, and P50/P90/P99. Durations are on
// the session-logical clock, so the table is a pure function of the logs:
// the same at any worker count, across a journal kill/resume and across a
// fleet merge. Spans that are not stages, and stage names metrics does not
// know, are skipped; a nil log (a lost session) adds nothing.
func StageTable(logs []*crawler.SessionLog) string {
	var spans [metrics.StageSubmit + 1][]time.Duration // indexed by metrics.Stage
	for _, lg := range logs {
		if lg == nil {
			continue
		}
		for _, sp := range lg.Trace {
			if st, ok := metrics.StageByName(sp.Name); ok && sp.Kind == trace.KindStage {
				spans[st] = append(spans[st], sp.Duration())
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s %10s %10s\n",
		"Stage", "Calls", "Total", "Mean", "P50", "P90", "P99")
	for st, ds := range spans {
		var total, mean time.Duration
		for _, d := range ds {
			total += d
		}
		if len(ds) > 0 {
			mean = total / time.Duration(len(ds))
		}
		slices.Sort(ds)
		fmt.Fprintf(&b, "%-8s %8d %12s %12s %10s %10s %10s\n",
			metrics.Stage(st), len(ds), total.Round(time.Microsecond), mean.Round(time.Microsecond),
			stageQuantile(ds, 0.50), stageQuantile(ds, 0.90), stageQuantile(ds, 0.99))
	}
	return b.String()
}

// stageQuantile reads quantile q of ascending durations as the
// power-of-two millisecond bound of the rank-ceil(q·n) one; no durations
// read 0.
func stageQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	rank = min(max(rank, 1), len(sorted))
	return msBound(sorted[rank-1])
}

// msBound rounds d up to a power-of-two number of milliseconds: 1ms for
// anything up to 1ms, and at most 1ms<<27 (~37h), which also stands for
// everything beyond it.
func msBound(d time.Duration) time.Duration {
	b := time.Millisecond
	for b < d && b < time.Millisecond<<27 {
		b <<= 1
	}
	return b
}
