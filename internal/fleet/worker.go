package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/farm"
)

// WorkerConfig configures one fleet worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base address ("host:port" or a full
	// http:// URL).
	Coordinator string
	// Name identifies this worker in leases, logs, and the fleet status
	// view.
	Name string
	// Manifest is this worker's run manifest; the coordinator refuses the
	// worker unless it is byte-equal to the coordinator's.
	Manifest []byte
	// Root is the fleet journal root; each lease journals into
	// ShardDir(Root, lease).
	Root string
	// Crawl runs one lease: crawl feed indices [l.Start, l.End), skipping
	// l.Completed, journaling finished sessions into dir, and return the
	// shard's statistics. The fleet layer supplies lease acquisition,
	// heartbeats, and result submission around it.
	Crawl func(l Lease, dir string) (farm.Stats, error)
	// Snapshot, when non-nil, is polled by the heartbeat loop for the live
	// progress of the lease currently crawling — typically backed by a
	// fresh farm.Monitor per Crawl call.
	Snapshot func() Progress
	// HeartbeatEvery is the heartbeat interval (default
	// DefaultHeartbeatEvery); a coordinator's shorter
	// LeaseResponse.HeartbeatMs overrides it for that lease.
	HeartbeatEvery time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests); nil uses a short-timeout
	// default.
	Client *http.Client
}

// worker is the running state behind RunWorker.
type worker struct {
	cfg  WorkerConfig
	base string
	hc   *http.Client
	// connected flips after the first successful exchange (atomic: the
	// heartbeat goroutine posts concurrently with the lease loop);
	// afterwards a connection-refused coordinator means the fleet run is
	// over (the coordinator reports, then exits) rather than not yet
	// started.
	connected      atomic.Bool
	startupRetries int
}

// refusedError marks an answer retrying cannot change: a refusal the
// coordinator gave deliberately (e.g. a manifest mismatch, HTTP 409) or a
// response the worker will not accept (oversized, or a lease that
// contradicts itself) — fatal immediately, never retried like a transport
// failure.
type refusedError struct{ msg string }

func (e refusedError) Error() string { return e.msg }

// RunWorker joins the fleet at cfg.Coordinator and crawls leases until the
// coordinator reports the feed done. It returns nil on a completed run —
// including when the coordinator has already shut down after completion —
// and an error when the coordinator refuses the worker (manifest
// mismatch) or was never reachable.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Crawl == nil {
		return fmt.Errorf("fleet: RunWorker requires a Crawl callback")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	base := cfg.Coordinator
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	w := &worker{cfg: cfg, base: strings.TrimRight(base, "/"), hc: hc}
	for {
		var resp LeaseResponse
		if err := w.post(PathLease, LeaseRequest{Worker: cfg.Name, Manifest: cfg.Manifest}, &resp); err != nil {
			if done, derr := w.lostCoordinator("requesting lease", err); done {
				return derr
			}
			continue
		}
		switch {
		case resp.Done:
			w.logf("fleet: coordinator reports feed complete; worker %s exiting", cfg.Name)
			return nil
		case resp.Wait:
			retry := time.Duration(resp.RetryMs) * time.Millisecond
			if retry <= 0 {
				retry = 250 * time.Millisecond
			}
			time.Sleep(retry)
			continue
		case resp.Lease == nil:
			return fmt.Errorf("fleet: coordinator sent an empty lease response")
		}
		l := *resp.Lease
		if l.Start < 0 || l.End < l.Start || len(l.Completed) > l.End-l.Start {
			return fmt.Errorf("fleet: coordinator sent an inconsistent lease %d %s with %d completed URLs", l.ID, l.Range(), len(l.Completed))
		}
		dir := ShardDir(cfg.Root, l)
		w.logf("fleet: worker %s crawling lease %d %s (attempt %d) into %s",
			cfg.Name, l.ID, l.Range(), l.Attempt, dir)
		every := w.cfg.HeartbeatEvery
		if d := time.Duration(resp.HeartbeatMs) * time.Millisecond; d > 0 && d < every {
			every = d
		}
		stop := w.startHeartbeats(l, every)
		stats, err := cfg.Crawl(l, dir)
		stop()
		if err != nil {
			return fmt.Errorf("fleet: crawling lease %d %s: %w", l.ID, l.Range(), err)
		}
		var res ResultResponse
		if err := w.post(PathResult, ResultRequest{Worker: cfg.Name, LeaseID: l.ID, Attempt: l.Attempt, Stats: stats}, &res); err != nil {
			if done, derr := w.lostCoordinator("submitting result", err); done {
				return derr
			}
			continue
		}
		if !res.Accepted {
			// The shard journal stays on disk but is excluded from the
			// merge; the re-issued attempt's journal is authoritative.
			w.logf("fleet: result for lease %d %s rejected (%s); continuing", l.ID, l.Range(), res.Reason)
		}
	}
}

// lostCoordinator decides what an unreachable coordinator means. Before
// the first successful exchange it is a startup failure worth retrying
// briefly and then reporting; after it, the expected shutdown order is
// workers-outlive-coordinator, so it means the run completed.
func (w *worker) lostCoordinator(during string, err error) (done bool, _ error) {
	if _, refused := err.(refusedError); refused {
		return true, err
	}
	if w.connected.Load() {
		w.logf("fleet: coordinator gone while %s (%v); assuming run complete, worker %s exiting", during, err, w.cfg.Name)
		return true, nil
	}
	if w.startupRetries++; w.startupRetries > 20 {
		return true, fmt.Errorf("fleet: coordinator %s unreachable: %w", w.base, err)
	}
	time.Sleep(250 * time.Millisecond)
	return false, nil
}

// startHeartbeats renews lease l every interval until the returned stop
// function is called. Heartbeat failures are logged, never fatal: the
// next beat may succeed, and if the lease meanwhile expired the result
// submission is where the worker finds out.
func (w *worker) startHeartbeats(l Lease, every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				var p Progress
				if w.cfg.Snapshot != nil {
					p = w.cfg.Snapshot()
				}
				var resp HeartbeatResponse
				err := w.post(PathHeartbeat, HeartbeatRequest{Worker: w.cfg.Name, LeaseID: l.ID, Attempt: l.Attempt, Progress: p}, &resp)
				if err == nil && !resp.Valid {
					w.logf("fleet: heartbeat for lease %d %s no longer valid (lease re-issued); finishing shard anyway", l.ID, l.Range())
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// maxResponseBytes caps one coordinator response. The largest legitimate
// one, a lease listing its already-journaled URLs, holds at most one URL
// per feed index it covers: at 100 bytes a URL, a lease over the paper's
// whole 51,859-URL feed is about 5 MB.
const maxResponseBytes = 16 << 20

// post sends one JSON request and decodes the JSON response. A non-2xx
// status becomes an error carrying the coordinator's message (manifest
// mismatches arrive this way, as HTTP 409).
func (w *worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s request: %w", path, err)
	}
	r, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 4<<10))
		return refusedError{msg: fmt.Sprintf("fleet: coordinator %s: %s", r.Status, strings.TrimSpace(string(msg)))}
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBytes+1))
	if err != nil {
		return fmt.Errorf("fleet: reading %s response: %w", path, err)
	}
	if len(data) > maxResponseBytes {
		return refusedError{msg: fmt.Sprintf("fleet: coordinator %s response exceeds %d bytes", path, maxResponseBytes)}
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("fleet: decoding %s response: %w", path, err)
	}
	w.connected.Store(true)
	return nil
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
