package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented phase of a crawl session. The four
// stages cover the crawler's hot path: rendering a page, reading labels
// with OCR, running the object detector, and driving the submit ladder.
type Stage int

const (
	StageRender Stage = iota
	StageOCR
	StageDetect
	StageSubmit
	numStages
)

var stageNames = [numStages]string{"render", "ocr", "detect", "submit"}

// String returns the stage's name as printed in timing tables.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageByName maps a stage name (as emitted in trace spans and timing
// tables) back to its Stage. It reports false for unknown names, so trace
// consumers can skip span kinds they do not chart.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// StageTimings accumulates per-stage call counts, total time, and a
// fixed-bucket latency histogram (see hist.go). It is safe for concurrent
// use, and the zero value is ready to use. A nil *StageTimings is a valid no-op
// collector, so instrumented code needs no guards.
type StageTimings struct {
	counts  [numStages]atomic.Int64
	nanos   [numStages]atomic.Int64
	buckets [numStages][NumHistBuckets]atomic.Int64
}

// Observe records one completed stage call of duration d.
func (t *StageTimings) Observe(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= numStages {
		return
	}
	t.counts[s].Add(1)
	t.nanos[s].Add(int64(d))
	t.buckets[s][histBucket(d)].Add(1)
}

// StageStat is a point-in-time snapshot of one stage's counters.
type StageStat struct {
	Stage string
	Count int64
	Total time.Duration
	// Buckets is the latency histogram: Buckets[i] counts observations in
	// (HistBucketBound(i-1), HistBucketBound(i)]. It may be nil on records
	// written before the histogram existed; percentiles then read as 0.
	Buckets []int64 `json:",omitempty"`
}

// Mean returns the average duration per call.
func (s StageStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Quantile reads quantile q (0..1) from the stage's latency histogram,
// reported as the matching bucket's upper bound.
func (s StageStat) Quantile(q float64) time.Duration { return histQuantile(s.Buckets, q) }

// P50 is the median stage latency (bucket upper bound).
func (s StageStat) P50() time.Duration { return s.Quantile(0.50) }

// P90 is the 90th-percentile stage latency (bucket upper bound).
func (s StageStat) P90() time.Duration { return s.Quantile(0.90) }

// P99 is the 99th-percentile stage latency (bucket upper bound).
func (s StageStat) P99() time.Duration { return s.Quantile(0.99) }

// Snapshot returns the current statistics for every stage in stage order,
// including stages never observed (with zero counts). It may be called
// while other goroutines are still recording.
func (t *StageTimings) Snapshot() []StageStat {
	if t == nil {
		return nil
	}
	out := make([]StageStat, numStages)
	for i := range out {
		buckets := make([]int64, NumHistBuckets)
		for b := range buckets {
			buckets[b] = t.buckets[i][b].Load()
		}
		out[i] = StageStat{
			Stage:   stageNames[i],
			Count:   t.counts[i].Load(),
			Total:   time.Duration(t.nanos[i].Load()),
			Buckets: buckets,
		}
	}
	return out
}

// MergeStageStats combines two snapshots stage-by-stage, matching rows by
// stage name: counts, totals, and histogram buckets add; a's row order is
// preserved, and stages present only in b are appended in b's order. The
// bucket merge is lossless, so percentiles never depend on how many runs
// or workers the observations arrived through, nor on merge order. It
// supports merging farm.Stats across resumed runs, where each run
// contributes its own snapshot.
func MergeStageStats(a, b []StageStat) []StageStat {
	if len(a) == 0 {
		out := make([]StageStat, len(b))
		for i, s := range b {
			s.Buckets = mergeHistBuckets(nil, s.Buckets)
			out[i] = s
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	out := make([]StageStat, len(a))
	for i, s := range a {
		s.Buckets = mergeHistBuckets(nil, s.Buckets)
		out[i] = s
	}
	index := make(map[string]int, len(out))
	for i, s := range out {
		index[s.Stage] = i
	}
	for _, s := range b {
		if i, ok := index[s.Stage]; ok {
			out[i].Count += s.Count
			out[i].Total += s.Total
			out[i].Buckets = mergeHistBuckets(out[i].Buckets, s.Buckets)
		} else {
			index[s.Stage] = len(out)
			s.Buckets = mergeHistBuckets(nil, s.Buckets)
			out = append(out, s)
		}
	}
	return out
}

// StageTable formats a snapshot as an aligned per-stage breakdown with
// latency percentiles from the streaming histogram.
func StageTable(stats []StageStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s %10s %10s\n",
		"Stage", "Calls", "Total", "Mean", "P50", "P90", "P99")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-8s %8d %12s %12s %10s %10s %10s\n",
			s.Stage, s.Count, s.Total.Round(time.Microsecond), s.Mean().Round(time.Microsecond),
			s.P50(), s.P90(), s.P99())
	}
	return b.String()
}
