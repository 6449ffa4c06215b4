package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// URLs is the full (post -sample) feed the fleet crawls, in feed
	// order. Leases are index ranges over this slice.
	URLs []string
	// Manifest is the run manifest (core.Options.Manifest) every shard
	// journal is bound to; lease requests carrying any other bytes are
	// refused.
	Manifest []byte
	// Root is the fleet journal root: every shard directory lives under
	// it, and a resumed coordinator recovers completed work by scanning
	// it.
	Root string
	// LeaseSites is the URLs-per-lease granularity (default
	// DefaultLeaseSites).
	LeaseSites int
	// TTL is the heartbeat expiry: a lease silent for longer is reclaimed
	// and re-issued (default DefaultLeaseTTL).
	TTL time.Duration
	// Resume permits existing shard directories under Root; without it
	// the coordinator refuses a non-empty root, mirroring the journal
	// CLI's own refuse-unless--resume contract.
	Resume bool
	// Logf, when non-nil, receives operational log lines (lease grants,
	// expiries, rejected results).
	Logf func(format string, args ...any)
}

const (
	leasePending = iota
	leaseActive
	leaseDone
)

// leaseState is the coordinator's book-keeping for one feed range.
type leaseState struct {
	id, start, end int
	state          int
	attempt        int       // current (or last granted) attempt, 0 = never granted
	worker         string    // holder of the active attempt
	lastBeat       time.Time // metrics seam, never session bytes
	doneBy         string
	doneAttempt    int
}

// workerView is the coordinator's live view of one worker, fed by lease
// grants and heartbeats.
type workerView struct {
	name     string
	leaseID  int // -1 = idle
	attempt  int
	progress Progress
	lastSeen time.Time
}

// Coordinator shards the feed into leases, serves them to workers, expires
// the ones whose workers go silent, and merges the finished shards.
type Coordinator struct {
	cfg CoordinatorConfig

	mu          sync.Mutex
	leases      []*leaseState
	completed   map[string]bool // URLs journaled before this incarnation started
	startupDirs []string        // shard dirs found at startup (dead writers)
	accepted    []Lease         // leases completed this incarnation, in acceptance order
	workers     map[string]*workerView

	// Totals over the results of the shards accepted this incarnation.
	crawled, fastPathed, panics int

	start    metrics.Stopwatch
	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator builds the lease table over cfg.URLs and, when resuming,
// recovers completed work by opening every shard journal under Root —
// torn tails from killed workers are truncated by the journal's own
// recovery, and each shard must be bound to cfg.Manifest
// (journal.BindRun), so a root recorded under other flags is refused.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseSites <= 0 {
		cfg.LeaseSites = DefaultLeaseSites
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		cfg:       cfg,
		completed: map[string]bool{},
		workers:   map[string]*workerView{},
		start:     metrics.NewStopwatch(),
		done:      make(chan struct{}),
	}
	dirs, err := listShardDirs(cfg.Root)
	if err != nil {
		return nil, err
	}
	if len(dirs) > 0 && !cfg.Resume {
		return nil, fmt.Errorf("fleet: journal root %s already holds %d shard directories; pass -resume to continue the run or point -journal at a fresh directory", cfg.Root, len(dirs))
	}
	for _, dir := range dirs {
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("fleet: recovering shard %s: %w", dir, err)
		}
		err = j.BindRun(cfg.Manifest)
		urls := j.CompletedURLs()
		if cerr := j.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: recovering shard %s: %w", dir, err)
		}
		for u := range urls {
			c.completed[u] = true
		}
		c.startupDirs = append(c.startupDirs, dir)
	}
	for start := 0; start < len(cfg.URLs); start += cfg.LeaseSites {
		end := start + cfg.LeaseSites
		if end > len(cfg.URLs) {
			end = len(cfg.URLs)
		}
		ls := &leaseState{id: len(c.leases), start: start, end: end}
		if c.remainingIn(start, end) == 0 {
			// Every URL in the range was journaled by a previous
			// incarnation; nothing to lease.
			ls.state = leaseDone
			ls.doneBy = "resume"
		}
		c.leases = append(c.leases, ls)
	}
	if c.cfg.Resume && len(c.startupDirs) > 0 {
		c.logf("fleet: resumed %s — %d URLs already journaled across %d shard directories",
			cfg.Root, len(c.completed), len(c.startupDirs))
	}
	c.checkDoneLocked()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// remainingIn counts URLs in [start, end) not yet journaled.
func (c *Coordinator) remainingIn(start, end int) int {
	n := 0
	for i := start; i < end; i++ {
		if !c.completed[c.cfg.URLs[i]] {
			n++
		}
	}
	return n
}

// Done is closed once every lease has an accepted result (or was complete
// at startup).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// checkDoneLocked closes the done channel when no lease remains open.
func (c *Coordinator) checkDoneLocked() {
	for _, ls := range c.leases {
		if ls.state != leaseDone {
			return
		}
	}
	c.doneOnce.Do(func() { close(c.done) })
}

// sweepExpiredLocked reclaims active leases whose workers missed the TTL.
func (c *Coordinator) sweepExpiredLocked(now time.Time) {
	for _, ls := range c.leases {
		if ls.state == leaseActive && now.Sub(ls.lastBeat) > c.cfg.TTL {
			c.logf("fleet: lease %d %s expired (worker %s silent for %s); re-issuing",
				ls.id, Lease{Start: ls.start, End: ls.end}.Range(), ls.worker,
				now.Sub(ls.lastBeat).Round(time.Millisecond))
			ls.state = leasePending
			if w := c.workers[ls.worker]; w != nil && w.leaseID == ls.id {
				w.leaseID = -1
				w.progress = Progress{}
			}
		}
	}
}

// grant answers one lease request.
func (c *Coordinator) grant(req LeaseRequest) (LeaseResponse, error) {
	if !bytes.Equal(req.Manifest, c.cfg.Manifest) {
		return LeaseResponse{}, fmt.Errorf("fleet: worker %s run manifest\n  %s\ndoes not match the coordinator's\n  %s\nevery fleet process needs identical byte-affecting flags",
			req.Worker, req.Manifest, c.cfg.Manifest)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := metrics.Now()
	c.noteWorkerLocked(req.Worker, now)
	c.sweepExpiredLocked(now)
	allDone := true
	for _, ls := range c.leases {
		switch ls.state {
		case leaseDone:
			continue
		case leaseActive:
			allDone = false
			continue
		}
		allDone = false
		ls.state = leaseActive
		ls.attempt++
		ls.worker = req.Worker
		ls.lastBeat = now
		l := Lease{ID: ls.id, Start: ls.start, End: ls.end, Attempt: ls.attempt}
		for i := ls.start; i < ls.end; i++ {
			if c.completed[c.cfg.URLs[i]] {
				l.Completed = append(l.Completed, c.cfg.URLs[i])
			}
		}
		sort.Strings(l.Completed)
		if w := c.workers[req.Worker]; w != nil {
			w.leaseID = ls.id
			w.attempt = ls.attempt
			w.progress = Progress{}
		}
		c.logf("fleet: lease %d %s granted to %s (attempt %d, %d already complete)",
			ls.id, l.Range(), req.Worker, ls.attempt, len(l.Completed))
		return LeaseResponse{Lease: &l, HeartbeatMs: c.quarterTTLMs()}, nil
	}
	if allDone {
		return LeaseResponse{Done: true}, nil
	}
	return LeaseResponse{Wait: true, RetryMs: c.quarterTTLMs()}, nil
}

// quarterTTLMs is a quarter of the lease TTL in milliseconds (at least
// 50): how often a lease holder must beat, and how long a waiting worker
// sleeps, to notice a lease change well within one TTL.
func (c *Coordinator) quarterTTLMs() int {
	return max(int(c.cfg.TTL.Milliseconds()/4), 50)
}

// beat answers one heartbeat.
func (c *Coordinator) beat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := metrics.Now()
	c.noteWorkerLocked(req.Worker, now)
	if req.LeaseID < 0 || req.LeaseID >= len(c.leases) {
		return HeartbeatResponse{}
	}
	ls := c.leases[req.LeaseID]
	if ls.state != leaseActive || ls.worker != req.Worker || ls.attempt != req.Attempt {
		return HeartbeatResponse{}
	}
	ls.lastBeat = now
	if w := c.workers[req.Worker]; w != nil {
		w.leaseID = ls.id
		w.attempt = ls.attempt
		w.progress = req.Progress
	}
	return HeartbeatResponse{Valid: true}
}

// result answers one shard submission, suppressing duplicates: a range
// completes exactly once, and a stale worker whose lease was re-issued
// gets a rejection instead of double-counting its work. Re-submitting an
// already-accepted result (a worker retrying after a lost response) is
// acknowledged idempotently.
func (c *Coordinator) result(req ResultRequest) ResultResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := metrics.Now()
	c.noteWorkerLocked(req.Worker, now)
	if req.LeaseID < 0 || req.LeaseID >= len(c.leases) {
		return ResultResponse{Reason: fmt.Sprintf("unknown lease %d", req.LeaseID)}
	}
	ls := c.leases[req.LeaseID]
	if ls.state == leaseDone {
		if ls.doneBy == req.Worker && ls.doneAttempt == req.Attempt {
			return ResultResponse{Accepted: true} // idempotent re-submit
		}
		return ResultResponse{Reason: fmt.Sprintf("range already completed by %s", ls.doneBy)}
	}
	if ls.attempt == 0 {
		// Never granted: a pending range's zero worker and attempt must
		// not match a request that names none.
		return ResultResponse{Reason: fmt.Sprintf("lease %d was never granted", req.LeaseID)}
	}
	if ls.worker != req.Worker || ls.attempt != req.Attempt {
		c.logf("fleet: rejecting stale result for lease %d from %s (attempt %d; lease now at attempt %d held by %s)",
			ls.id, req.Worker, req.Attempt, ls.attempt, ls.worker)
		return ResultResponse{Reason: "lease was re-issued after missed heartbeats"}
	}
	ls.state = leaseDone
	ls.doneBy = req.Worker
	ls.doneAttempt = req.Attempt
	c.accepted = append(c.accepted, Lease{ID: ls.id, Start: ls.start, End: ls.end, Attempt: req.Attempt})
	c.crawled += req.Stats.Sites
	c.fastPathed += req.Stats.FastPathed
	c.panics += req.Stats.Panics
	if w := c.workers[req.Worker]; w != nil && w.leaseID == ls.id {
		w.leaseID = -1
		w.progress = Progress{}
	}
	c.logf("fleet: lease %d %s completed by %s (%d sessions)",
		ls.id, Lease{Start: ls.start, End: ls.end}.Range(), req.Worker, req.Stats.Sites)
	c.checkDoneLocked()
	return ResultResponse{Accepted: true}
}

func (c *Coordinator) noteWorkerLocked(name string, now time.Time) {
	w := c.workers[name]
	if w == nil {
		w = &workerView{name: name, leaseID: -1}
		c.workers[name] = w
	}
	w.lastSeen = now
}

// Merge reads every authoritative shard journal — the directories found at
// startup plus the shards accepted this incarnation — with
// journal.ReadSessions, which writes nothing into them, deduplicates
// sessions by seed URL (a re-crawled URL produces a byte-identical
// session, so either copy serves), re-assembles feed order, and recomputes
// the run statistics from the sessions exactly as the single-process
// journal path does (farm.Tally). Panics, which no session carries, is the
// sum over this incarnation's accepted results; Elapsed is left zero, since
// no journal records time (Status has the coordinator's own clock).
// Directories of abandoned lease attempts (expired mid-run) are excluded;
// their URLs are covered by the accepted re-issue, and skipping them means
// a stale still-running worker can never race the merge.
func (c *Coordinator) Merge() ([]*crawler.SessionLog, farm.Stats, error) {
	c.mu.Lock()
	dirs := append([]string(nil), c.startupDirs...)
	for _, l := range c.accepted {
		dirs = append(dirs, ShardDir(c.cfg.Root, l))
	}
	panics := c.panics
	c.mu.Unlock()
	seenDir := map[string]bool{}
	seenURL := map[string]bool{}
	var logs []*crawler.SessionLog
	for _, dir := range dirs {
		if seenDir[dir] {
			continue
		}
		seenDir[dir] = true
		sessions, err := journal.ReadSessions(dir)
		if err != nil {
			return nil, farm.Stats{}, fmt.Errorf("fleet: merging shard %s: %w", dir, err)
		}
		for _, lg := range sessions {
			if !seenURL[lg.SeedURL] {
				seenURL[lg.SeedURL] = true
				logs = append(logs, lg)
			}
		}
	}
	sort.Slice(logs, func(a, b int) bool {
		if logs[a].FeedIndex != logs[b].FeedIndex {
			return logs[a].FeedIndex < logs[b].FeedIndex
		}
		return logs[a].SeedURL < logs[b].SeedURL
	})
	stats := farm.Tally(logs)
	stats.Panics = panics
	return logs, stats, nil
}

// Handler returns the coordinator's HTTP interface: the three POST
// endpoints of the wire protocol plus GET /status serving the fleet-wide
// progress view (StatusHandler).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.grant(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeInto(w, r, &req) {
			return
		}
		writeJSON(w, c.beat(req))
	})
	mux.HandleFunc(PathResult, func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !decodeInto(w, r, &req) {
			return
		}
		writeJSON(w, c.result(req))
	})
	mux.Handle(PathStatus, c.StatusHandler())
	return mux
}

// StatusHandler serves GET /status alone: the fleet-wide progress view as
// plain text, or as JSON with ?format=json. A read-only status port serves
// it, so that port answers none of the wire protocol.
func (c *Coordinator) StatusHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st) // best-effort response; a failed write surfaces client-side
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, st.String())
	})
	return mux
}

// maxRequestBytes caps one worker request body. The largest legitimate
// one, a result carrying a shard's stats, is a few KB.
const maxRequestBytes = 1 << 20

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // best-effort response; a failed write surfaces as the client's error
}

// listShardDirs returns the shard journal directories under root, sorted
// by name (range order, then attempt order). A missing root is an empty
// fleet, not an error.
func listShardDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("fleet: reading journal root: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			out = append(out, filepath.Join(root, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
