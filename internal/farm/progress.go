package farm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/metrics"
)

// Monitor tracks a run's live progress for the -status-addr endpoint and
// the periodic progress line. All methods are safe for concurrent use and
// nil-safe (a nil Monitor disables progress tracking at zero cost), so
// the farm instruments unconditionally. One Monitor may span several Run
// calls (e.g. a resumed crawl's skip-then-crawl sequence).
type Monitor struct {
	total        atomic.Int64
	preCompleted atomic.Int64
	// retried and panics count attempts, before their session finishes.
	retried atomic.Int64
	panics  atomic.Int64
	start   metrics.Stopwatch

	mu    sync.Mutex
	tally tally // finished sessions, counted by the run's own rule
}

// NewMonitor returns a monitor whose elapsed clock starts now (through
// the metrics seam — progress is operational output, never session
// bytes).
func NewMonitor() *Monitor {
	return &Monitor{start: metrics.NewStopwatch()}
}

// SetTotal declares how many feed URLs the run covers (including ones a
// resumed run will skip).
func (m *Monitor) SetTotal(n int) {
	if m != nil {
		m.total.Store(int64(n))
	}
}

// AddPreCompleted counts URLs a resumed run skips as already complete;
// they count toward Done but not toward the throughput/ETA rate.
func (m *Monitor) AddPreCompleted(n int) {
	if m != nil {
		m.preCompleted.Add(int64(n))
	}
}

// noteDone records one finished session (final attempt only).
func (m *Monitor) noteDone(lg *crawler.SessionLog) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.tally.add(lg)
	m.mu.Unlock()
}

func (m *Monitor) noteRetry() {
	if m != nil {
		m.retried.Add(1)
	}
}

func (m *Monitor) notePanic() {
	if m != nil {
		m.panics.Add(1)
	}
}

// Progress is one point-in-time view of a run, the payload of the status
// endpoint and the progress line.
type Progress struct {
	// Total is the feed size; Done counts finished URLs including
	// PreCompleted ones a resumed run skipped.
	Total        int
	Done         int
	PreCompleted int
	// FastPathed counts sessions the triage fast path resolved without a
	// browser (included in Done).
	FastPathed int
	Retried    int
	Degraded   int
	Failed     int
	Panics     int
	// Elapsed is wall time since the monitor started (metrics seam).
	Elapsed time.Duration
	// ETA extrapolates the remaining time from this run's crawl rate; 0
	// until at least one session finishes or when the run is complete.
	ETA         time.Duration
	SitesPerDay float64
	// Stages is the per-stage latency snapshot (count, total, histogram
	// percentiles) over sessions finished so far.
	Stages []metrics.StageStat
}

// Snapshot reads the current progress. Safe to call from the status
// server's goroutines while workers are recording.
func (m *Monitor) Snapshot() Progress {
	if m == nil {
		return Progress{}
	}
	m.mu.Lock()
	s := m.tally.stats(0, 0)
	m.mu.Unlock()
	p := Progress{
		Total:        int(m.total.Load()),
		PreCompleted: int(m.preCompleted.Load()),
		FastPathed:   s.FastPathed,
		Retried:      int(m.retried.Load()),
		Degraded:     s.Degraded,
		Failed:       s.Outcomes[OutcomeGaveUp] + s.Outcomes[OutcomeLost],
		Panics:       int(m.panics.Load()),
		Elapsed:      m.start.Elapsed(),
		Stages:       s.Stages,
	}
	p.Done = s.Sites + p.PreCompleted
	crawled := p.Done - p.PreCompleted
	if crawled > 0 && p.Elapsed > 0 {
		p.SitesPerDay = float64(crawled) / p.Elapsed.Seconds() * 86400
		if rem := p.Total - p.Done; rem > 0 {
			p.ETA = time.Duration(int64(p.Elapsed) / int64(crawled) * int64(rem))
		}
	}
	return p
}

// String renders the one-line progress log:
//
//	progress: 120/300 (40.0%) done | 3 retried | 2 degraded | 1 failed | elapsed 12s | eta 25s
func (p Progress) String() string {
	var b strings.Builder
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	fmt.Fprintf(&b, "progress: %d/%d (%.1f%%) done", p.Done, p.Total, pct)
	if p.PreCompleted > 0 {
		fmt.Fprintf(&b, " (%d resumed)", p.PreCompleted)
	}
	if p.FastPathed > 0 {
		fmt.Fprintf(&b, " | %d fast-path", p.FastPathed)
	}
	fmt.Fprintf(&b, " | %d retried | %d degraded | %d failed", p.Retried, p.Degraded, p.Failed)
	if p.Panics > 0 {
		fmt.Fprintf(&b, " | %d panics", p.Panics)
	}
	fmt.Fprintf(&b, " | elapsed %s", p.Elapsed.Round(time.Millisecond))
	if p.ETA > 0 {
		fmt.Fprintf(&b, " | eta %s", p.ETA.Round(time.Millisecond))
	}
	return b.String()
}
