package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
)

// fleetHarness runs a coordinator behind a real HTTP server, exercising
// the full wire protocol the way the CLI does.
type fleetHarness struct {
	coord *Coordinator
	srv   *httptest.Server
	root  string
}

func newFleetHarness(t *testing.T, urls []string, leaseSites int) *fleetHarness {
	t.Helper()
	return newFleetHarnessTTL(t, urls, leaseSites, time.Minute)
}

func newFleetHarnessTTL(t *testing.T, urls []string, leaseSites int, ttl time.Duration) *fleetHarness {
	t.Helper()
	root := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{
		URLs:       urls,
		Manifest:   testManifest,
		Root:       root,
		LeaseSites: leaseSites,
		TTL:        ttl,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return &fleetHarness{coord: coord, srv: srv, root: root}
}

func (h *fleetHarness) workerConfig(t *testing.T, name string, urls []string) WorkerConfig {
	t.Helper()
	return WorkerConfig{
		Coordinator:    h.srv.URL,
		Name:           name,
		Manifest:       testManifest,
		Root:           h.root,
		HeartbeatEvery: 10 * time.Millisecond,
		Logf:           t.Logf,
		Crawl: func(l Lease, dir string) (farm.Stats, error) {
			skip := make(map[string]bool, len(l.Completed))
			for _, u := range l.Completed {
				skip[u] = true
			}
			var idxs []int
			for i := l.Start; i < l.End; i++ {
				if !skip[urls[i]] {
					idxs = append(idxs, i)
				}
			}
			journalLease(t, h.root, l, urls, idxs, "stub")
			return farm.Stats{Sites: len(idxs), Elapsed: time.Second, Panics: 1}, nil
		},
	}
}

// TestRunWorkerCompletesFleet drives two workers over the protocol: every
// lease is crawled exactly once, both exit nil on Done, and the merged
// view covers the feed in order.
func TestRunWorkerCompletesFleet(t *testing.T) {
	urls := testURLs(10)
	h := newFleetHarness(t, urls, 3)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = RunWorker(h.workerConfig(t, name, urls))
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-h.coord.Done():
	default:
		t.Fatal("workers exited but coordinator not done")
	}
	logs, stats, err := h.coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != len(urls) {
		t.Fatalf("merged %d sessions, want %d", len(logs), len(urls))
	}
	for i, lg := range logs {
		if lg.FeedIndex != i {
			t.Fatalf("merged log %d has feed index %d", i, lg.FeedIndex)
		}
	}
	if stats.Sites != len(urls) || stats.Outcomes["stub"] != len(urls) {
		t.Fatalf("merged stats wrong: %+v", stats)
	}
	// One panic reported by each of the 4 accepted leases.
	if stats.Panics != 4 {
		t.Fatalf("merged panics = %d, want 4", stats.Panics)
	}
}

// TestRunWorkerHeartbeats verifies the heartbeat goroutine reports live
// progress while Crawl runs.
func TestRunWorkerHeartbeats(t *testing.T) {
	urls := testURLs(4)
	h := newFleetHarness(t, urls, 4)
	cfg := h.workerConfig(t, "w1", urls)
	inner := cfg.Crawl
	release := make(chan struct{})
	cfg.Snapshot = func() Progress { return Progress{Done: 3} }
	cfg.Crawl = func(l Lease, dir string) (farm.Stats, error) {
		<-release // hold the lease open across several heartbeat ticks
		return inner(l, dir)
	}
	done := make(chan error, 1)
	go func() { done <- RunWorker(cfg) }()

	deadline := time.After(5 * time.Second)
	for {
		st := h.coord.Status()
		if len(st.Workers) == 1 && st.Workers[0].Done == 3 && st.Workers[0].Lease == "[0,4)" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("heartbeat progress never reached the coordinator: %+v", st.Workers)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunWorkerBeatsWithinShortTTL: a worker configured to beat rarely
// still beats several times per TTL of a short-TTL coordinator, so a live
// lease held past that TTL is neither expired nor re-issued.
func TestRunWorkerBeatsWithinShortTTL(t *testing.T) {
	urls := testURLs(4)
	const ttl = 400 * time.Millisecond
	h := newFleetHarnessTTL(t, urls, 4, ttl)
	cfg := h.workerConfig(t, "w1", urls)
	cfg.HeartbeatEvery = time.Hour
	inner := cfg.Crawl
	release := make(chan struct{})
	cfg.Snapshot = func() Progress { return Progress{Done: 2} }
	cfg.Crawl = func(l Lease, dir string) (farm.Stats, error) {
		<-release
		return inner(l, dir)
	}
	done := make(chan error, 1)
	go func() { done <- RunWorker(cfg) }()

	deadline := time.After(5 * time.Second)
	for {
		st := h.coord.Status()
		if len(st.Workers) == 1 && st.Workers[0].Done == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no heartbeat within 5s under a 400ms TTL: %+v", st.Workers)
		case <-time.After(5 * time.Millisecond):
		}
	}
	time.Sleep(2 * ttl) // hold the lease past the TTL
	if r, err := h.coord.grant(LeaseRequest{Worker: "w2", Manifest: testManifest}); err != nil || !r.Wait {
		t.Fatalf("second worker got %+v, %v; want wait (lease still held)", r, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := h.coord.Status(); st.LeasesDone != st.Leases {
		t.Fatalf("lease result not accepted: %d of %d leases done", st.LeasesDone, st.Leases)
	}
}

// TestRunWorkerParamsMismatchFatal: a refused worker must exit with the
// coordinator's message, not retry forever.
func TestRunWorkerParamsMismatchFatal(t *testing.T) {
	urls := testURLs(4)
	h := newFleetHarness(t, urls, 4)
	cfg := h.workerConfig(t, "w1", urls)
	cfg.Manifest = []byte(`{"numSites":10,"seed":99}`)
	err := RunWorker(cfg)
	if err == nil {
		t.Fatal("mismatched worker ran to completion")
	}
	if !strings.Contains(err.Error(), "409") && !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("unhelpful refusal error: %v", err)
	}
}

// TestRunWorkerExitsWhenCoordinatorGone: after a successful exchange, a
// vanished coordinator means the run completed — exit nil, not an error.
func TestRunWorkerExitsWhenCoordinatorGone(t *testing.T) {
	urls := testURLs(4)
	h := newFleetHarness(t, urls, 4)
	cfg := h.workerConfig(t, "w1", urls)
	inner := cfg.Crawl
	cfg.Crawl = func(l Lease, dir string) (farm.Stats, error) {
		st, err := inner(l, dir)
		h.srv.Close() // coordinator exits before the result lands
		return st, err
	}
	if err := RunWorker(cfg); err != nil {
		t.Fatalf("worker treated post-completion shutdown as an error: %v", err)
	}
}

// TestRunWorkerNeverConnected: a worker that can never reach the
// coordinator reports it instead of spinning forever.
func TestRunWorkerNeverConnected(t *testing.T) {
	cfg := WorkerConfig{
		Coordinator: "127.0.0.1:1", // nothing listens on port 1
		Name:        "w1",
		Manifest:    testManifest,
		Root:        t.TempDir(),
		Crawl:       func(Lease, string) (farm.Stats, error) { return farm.Stats{}, nil },
		Logf:        t.Logf,
	}
	if err := RunWorker(cfg); err == nil {
		t.Fatal("unreachable coordinator reported as success")
	}
}

// TestRunWorkerRejectedResultContinues: a worker whose result is rejected
// (lease re-issued) keeps serving the fleet instead of dying.
func TestRunWorkerRejectedResultContinues(t *testing.T) {
	urls := testURLs(6)
	h := newFleetHarness(t, urls, 3)
	cfg := h.workerConfig(t, "w1", urls)

	// Steal lease 0 before the worker starts: grant it to a phantom, then
	// force expiry by completing it under another name so the worker's own
	// later grant path is unaffected. Simpler: complete lease 0 directly so
	// the worker's submission for it can never happen; instead intercept the
	// worker's first result by pre-completing the lease from a rival.
	crawled := make(chan Lease, 8)
	inner := cfg.Crawl
	cfg.Crawl = func(l Lease, dir string) (farm.Stats, error) {
		st, err := inner(l, dir)
		if l.ID == 0 && l.Attempt == 1 {
			// A rival submits the same range first (as if the lease had
			// expired and been re-issued, and the rival finished sooner).
			h.coord.mu.Lock()
			ls := h.coord.leases[0]
			ls.attempt++
			ls.worker = "rival"
			h.coord.mu.Unlock()
			journalLease(t, h.root, Lease{ID: 0, Start: l.Start, End: l.End, Attempt: 2}, urls, []int{0, 1, 2}, "stub")
			if res := h.coord.result(ResultRequest{Worker: "rival", LeaseID: 0, Attempt: 2, Stats: farm.Stats{Sites: 3, Elapsed: time.Second}}); !res.Accepted {
				t.Errorf("rival result rejected: %s", res.Reason)
			}
		}
		crawled <- l
		return st, err
	}
	if err := RunWorker(cfg); err != nil {
		t.Fatalf("worker died after a rejected result: %v", err)
	}
	var ids []int
	for {
		select {
		case l := <-crawled:
			ids = append(ids, l.ID)
			continue
		default:
		}
		break
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("worker crawled leases %v, want [0 1] (rejected 0, then continued to 1)", ids)
	}
	logs, _, err := h.coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != len(urls) {
		t.Fatalf("merged %d sessions, want %d", len(logs), len(urls))
	}
}

// TestRunWorkerRefusesHostileCoordinator: a worker reads coordinator
// responses up to a cap and checks a lease before crawling it, so a
// hostile or broken coordinator makes it exit with an error instead of
// buffering without bound or crawling a lease that contradicts itself.
func TestRunWorkerRefusesHostileCoordinator(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"oversized response": func(w http.ResponseWriter, r *http.Request) {
			chunk := strings.Repeat("a", 64<<10)
			if _, err := io.WriteString(w, `{"lease":{"id":0,"start":0,"end":1,"completed":["`); err != nil {
				return
			}
			for n := 0; n <= maxResponseBytes; n += len(chunk) {
				if _, err := io.WriteString(w, chunk); err != nil {
					return // the worker stopped reading
				}
			}
			_, _ = io.WriteString(w, `"]}}`)
		},
		"completed list longer than the lease": func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, LeaseResponse{Lease: &Lease{ID: 0, Start: 0, End: 2, Attempt: 1, Completed: []string{"a", "b", "c"}}})
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(handler)
			defer srv.Close()
			crawled := false
			err := RunWorker(WorkerConfig{
				Coordinator: srv.URL,
				Name:        "w1",
				Manifest:    testManifest,
				Root:        t.TempDir(),
				Crawl: func(Lease, string) (farm.Stats, error) {
					crawled = true
					return farm.Stats{}, nil
				},
				Logf: t.Logf,
			})
			if err == nil {
				t.Fatal("worker accepted the hostile response")
			}
			if crawled {
				t.Error("worker crawled a lease from the hostile response")
			}
			t.Logf("refused: %v", err)
		})
	}
}
