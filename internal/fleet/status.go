package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/metrics"
)

// WorkerStatus is one worker's row in the fleet-wide progress view.
type WorkerStatus struct {
	Name string `json:"name"`
	// Lease is the held range ("[200,300)") or "" when idle.
	Lease   string `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Done counts sessions finished in the current lease (from the last
	// heartbeat).
	Done int `json:"done"`
	// LastSeenMs is how long ago the worker last spoke to the
	// coordinator.
	LastSeenMs int64 `json:"lastSeenMs"`
}

// Status is the fleet-wide progress snapshot served at the coordinator's
// /status endpoint: URL and lease totals, per-worker lease state,
// throughput and ETA.
type Status struct {
	TotalURLs int `json:"totalUrls"`
	// DoneURLs counts journaled sessions: recovered at startup, in
	// accepted shards, and reported live by in-flight leases.
	DoneURLs int `json:"doneUrls"`
	// Recovered is the startup-scan share of DoneURLs (the resume case).
	Recovered int `json:"recovered"`
	// FastPathed counts sessions the triage funnel resolved without a full
	// browser crawl (accepted shards plus live leases); included in
	// DoneURLs.
	FastPathed    int            `json:"fastPathed,omitempty"`
	Leases        int            `json:"leases"`
	LeasesDone    int            `json:"leasesDone"`
	LeasesActive  int            `json:"leasesActive"`
	LeasesPending int            `json:"leasesPending"`
	ElapsedMs     int64          `json:"elapsedMs"`
	EtaMs         int64          `json:"etaMs"`
	SitesPerDay   float64        `json:"sitesPerDay"`
	Workers       []WorkerStatus `json:"workers"`
}

// Status snapshots the fleet-wide progress. Safe to call from the status
// server's goroutines while the protocol handlers are running.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := metrics.Now()
	elapsed := c.start.Elapsed()
	st := Status{
		TotalURLs: len(c.cfg.URLs),
		Recovered: len(c.completed),
		Leases:    len(c.leases),
		ElapsedMs: elapsed.Milliseconds(),
	}
	live := 0
	for _, ls := range c.leases {
		switch ls.state {
		case leaseDone:
			st.LeasesDone++
		case leaseActive:
			st.LeasesActive++
		default:
			st.LeasesPending++
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		ws := WorkerStatus{
			Name:       w.name,
			Done:       w.progress.Done,
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
		}
		if w.leaseID >= 0 {
			ls := c.leases[w.leaseID]
			ws.Lease = Lease{Start: ls.start, End: ls.end}.Range()
			ws.Attempt = w.attempt
			live += w.progress.Done
			st.FastPathed += w.progress.FastPathed
		}
		st.Workers = append(st.Workers, ws)
	}
	st.FastPathed += c.fastPathed
	st.DoneURLs = len(c.completed) + c.crawled + live
	var eta time.Duration
	st.SitesPerDay, eta = farm.Throughput(c.crawled+live, st.TotalURLs-st.DoneURLs, elapsed)
	st.EtaMs = eta.Milliseconds()
	return st
}

// String renders the multi-line plain-text fleet status: one summary line
// in the style of the single-process progress line, then one line per
// worker.
func (s Status) String() string {
	var b strings.Builder
	pct := 0.0
	if s.TotalURLs > 0 {
		pct = 100 * float64(s.DoneURLs) / float64(s.TotalURLs)
	}
	fmt.Fprintf(&b, "fleet: %d/%d (%.1f%%) urls done", s.DoneURLs, s.TotalURLs, pct)
	if s.Recovered > 0 {
		fmt.Fprintf(&b, " (%d recovered)", s.Recovered)
	}
	if s.FastPathed > 0 {
		fmt.Fprintf(&b, " | %d fast-path", s.FastPathed)
	}
	fmt.Fprintf(&b, " | leases %d/%d done, %d active, %d pending | %d workers | elapsed %s",
		s.LeasesDone, s.Leases, s.LeasesActive, s.LeasesPending, len(s.Workers),
		(time.Duration(s.ElapsedMs) * time.Millisecond).Round(time.Millisecond))
	if s.EtaMs > 0 {
		fmt.Fprintf(&b, " | eta %s", (time.Duration(s.EtaMs) * time.Millisecond).Round(time.Millisecond))
	}
	if s.SitesPerDay > 0 {
		fmt.Fprintf(&b, " | %.0f sites/day", s.SitesPerDay)
	}
	for _, w := range s.Workers {
		fmt.Fprintf(&b, "\n  worker %-16s ", w.Name)
		if w.Lease != "" {
			fmt.Fprintf(&b, "lease %s attempt %d | %d done", w.Lease, w.Attempt, w.Done)
		} else {
			fmt.Fprintf(&b, "idle")
		}
		fmt.Fprintf(&b, " | seen %s ago", (time.Duration(w.LastSeenMs) * time.Millisecond).Round(time.Millisecond))
	}
	return b.String()
}
