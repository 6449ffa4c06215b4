package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// testURLs builds a small deterministic feed.
func testURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site-%03d.test/login", i)
	}
	return urls
}

var testManifest = []byte(`{"numSites":10,"seed":42}`)

func newTestCoordinator(t *testing.T, urls []string, leaseSites int, ttl time.Duration, resume bool) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		URLs:       urls,
		Manifest:   testManifest,
		Root:       t.TempDir(),
		LeaseSites: leaseSites,
		TTL:        ttl,
		Resume:     resume,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeClock installs a settable clock behind the metrics seam.
func fakeClock(t *testing.T) func(advance time.Duration) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	cur := base
	restore := metrics.SetClockForTest(func() time.Time { return cur })
	t.Cleanup(restore)
	return func(d time.Duration) { cur = cur.Add(d) }
}

// mkLog fabricates a finished session for url at feed index idx.
func mkLog(idx int, url, outcome string) *crawler.SessionLog {
	return &crawler.SessionLog{SeedURL: url, FeedIndex: idx, Outcome: outcome, Attempts: 1}
}

// journalLease binds the lease's shard directory to testManifest and
// writes sessions for the given indices, exactly as a worker would.
func journalLease(t *testing.T, root string, l Lease, urls []string, idxs []int, outcome string) {
	t.Helper()
	j, err := journal.Open(ShardDir(root, l), journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.BindRun(testManifest); err != nil {
		t.Fatal(err)
	}
	for _, i := range idxs {
		if err := j.AppendSession(mkLog(i, urls[i], outcome)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseShardingPartitionsFeed(t *testing.T) {
	urls := testURLs(10)
	c := newTestCoordinator(t, urls, 4, time.Minute, false)
	var got []Lease
	for {
		resp, err := c.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Wait {
			break // everything leased out
		}
		if resp.Done {
			t.Fatal("run done before any results")
		}
		got = append(got, *resp.Lease)
	}
	want := []struct{ start, end int }{{0, 4}, {4, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("granted %d leases, want %d", len(got), len(want))
	}
	for i, l := range got {
		if l.Start != want[i].start || l.End != want[i].end || l.Attempt != 1 {
			t.Errorf("lease %d = %s attempt %d, want [%d,%d) attempt 1", i, l.Range(), l.Attempt, want[i].start, want[i].end)
		}
		if len(l.Completed) != 0 {
			t.Errorf("fresh lease %d carries completed URLs: %v", i, l.Completed)
		}
	}
}

func TestParamsMismatchRefused(t *testing.T) {
	c := newTestCoordinator(t, testURLs(4), 4, time.Minute, false)
	bad := []byte(`{"numSites":10,"seed":99}`)
	if _, err := c.grant(LeaseRequest{Worker: "w1", Manifest: bad}); err == nil {
		t.Fatal("mismatched manifest was granted a lease")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
}

func TestLeaseExpiryReissueAndDuplicateSuppression(t *testing.T) {
	advance := fakeClock(t)
	urls := testURLs(4)
	c := newTestCoordinator(t, urls, 4, 10*time.Second, false)

	resp, err := c.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	if err != nil || resp.Lease == nil {
		t.Fatalf("grant to w1: %+v, %v", resp, err)
	}
	l1 := *resp.Lease

	// Heartbeats keep the lease alive past a TTL of silence measured from
	// grant time.
	advance(8 * time.Second)
	if hb := c.beat(HeartbeatRequest{Worker: "w1", LeaseID: l1.ID, Attempt: l1.Attempt}); !hb.Valid {
		t.Fatal("heartbeat on live lease rejected")
	}
	advance(8 * time.Second)
	if resp, err := c.grant(LeaseRequest{Worker: "w2", Manifest: testManifest}); err != nil || !resp.Wait {
		t.Fatalf("lease with recent heartbeat was reclaimed: %+v, %v", resp, err)
	}

	// Silence past the TTL: the range is re-issued to w2 at attempt 2.
	advance(11 * time.Second)
	resp, err = c.grant(LeaseRequest{Worker: "w2", Manifest: testManifest})
	if err != nil || resp.Lease == nil {
		t.Fatalf("expired lease not re-issued: %+v, %v", resp, err)
	}
	l2 := *resp.Lease
	if l2.ID != l1.ID || l2.Attempt != 2 {
		t.Fatalf("re-issue got lease %d attempt %d, want lease %d attempt 2", l2.ID, l2.Attempt, l1.ID)
	}
	if ShardDir("r", l1) == ShardDir("r", l2) {
		t.Fatal("re-issued attempt shares the stale worker's shard directory")
	}

	// The stale worker's heartbeat and result are both rejected.
	if hb := c.beat(HeartbeatRequest{Worker: "w1", LeaseID: l1.ID, Attempt: l1.Attempt}); hb.Valid {
		t.Fatal("stale heartbeat accepted")
	}
	if res := c.result(ResultRequest{Worker: "w1", LeaseID: l1.ID, Attempt: l1.Attempt, Stats: farm.Stats{Sites: 4}}); res.Accepted {
		t.Fatal("stale result accepted: duplicate work double-counted")
	}

	// The live attempt completes; re-submitting is idempotent; the stale
	// worker still cannot claim it.
	if res := c.result(ResultRequest{Worker: "w2", LeaseID: l2.ID, Attempt: l2.Attempt, Stats: farm.Stats{Sites: 4}}); !res.Accepted {
		t.Fatalf("live result rejected: %s", res.Reason)
	}
	if res := c.result(ResultRequest{Worker: "w2", LeaseID: l2.ID, Attempt: l2.Attempt, Stats: farm.Stats{Sites: 4}}); !res.Accepted {
		t.Fatal("idempotent re-submit rejected")
	}
	if res := c.result(ResultRequest{Worker: "w1", LeaseID: l1.ID, Attempt: l1.Attempt, Stats: farm.Stats{Sites: 4}}); res.Accepted {
		t.Fatal("stale result accepted after completion")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("all leases complete but Done not closed")
	}
}

func TestMergeExcludesAbandonedAttempt(t *testing.T) {
	advance := fakeClock(t)
	urls := testURLs(4)
	root := t.TempDir()
	c, err := NewCoordinator(CoordinatorConfig{URLs: urls, Manifest: testManifest, Root: root, LeaseSites: 4, TTL: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := c.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	l1 := *resp.Lease
	// w1 journals half the range, then dies silently.
	journalLease(t, root, l1, urls, []int{0, 1}, "from-abandoned")
	advance(11 * time.Second)
	resp, _ = c.grant(LeaseRequest{Worker: "w2", Manifest: testManifest})
	l2 := *resp.Lease
	journalLease(t, root, l2, urls, []int{0, 1, 2, 3}, "from-accepted")
	if res := c.result(ResultRequest{Worker: "w2", LeaseID: l2.ID, Attempt: l2.Attempt, Stats: farm.Stats{Sites: 4}}); !res.Accepted {
		t.Fatalf("result rejected: %s", res.Reason)
	}
	logs, stats, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 4 {
		t.Fatalf("merged %d sessions, want 4", len(logs))
	}
	for _, lg := range logs {
		if lg.Outcome != "from-accepted" {
			t.Fatalf("merge read the abandoned attempt's journal: %s has outcome %q", lg.SeedURL, lg.Outcome)
		}
	}
	if stats.Outcomes["from-accepted"] != 4 {
		t.Fatalf("stats outcomes = %v, want 4 from-accepted", stats.Outcomes)
	}
}

// TestCoordinatorRestartResume is the coordinator-crash story: shard
// journals (and their manifests) on disk are the only state, and a new
// coordinator over the same root recovers completed work, marks fully
// journaled ranges done, and hands out leases whose Completed sets cover
// partially crawled ranges.
func TestCoordinatorRestartResume(t *testing.T) {
	urls := testURLs(10)
	root := t.TempDir()
	mk := func(resume bool) *Coordinator {
		c, err := NewCoordinator(CoordinatorConfig{URLs: urls, Manifest: testManifest, Root: root, LeaseSites: 4, TTL: time.Minute, Resume: resume, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// First incarnation: lease 0 fully journaled and accepted, lease 1
	// only half journaled (no result), lease 2 untouched. Then the
	// coordinator "crashes" (is dropped).
	c1 := mk(false)
	r0, _ := c1.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	journalLease(t, root, *r0.Lease, urls, []int{0, 1, 2, 3}, "done")
	if res := c1.result(ResultRequest{Worker: "w1", LeaseID: r0.Lease.ID, Attempt: r0.Lease.Attempt, Stats: farm.Stats{Sites: 4, Elapsed: time.Second}}); !res.Accepted {
		t.Fatalf("result rejected: %s", res.Reason)
	}
	r1, _ := c1.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	journalLease(t, root, *r1.Lease, urls, []int{4, 5}, "done")

	// Second incarnation must refuse the root without -resume.
	if _, err := NewCoordinator(CoordinatorConfig{URLs: urls, Manifest: testManifest, Root: root, LeaseSites: 4, TTL: time.Minute}); err == nil {
		t.Fatal("restart over a non-empty root without Resume was allowed")
	}

	c2 := mk(true)
	// Range [0,4) was fully recovered: never leased again.
	g1, err := c2.grant(LeaseRequest{Worker: "w2", Manifest: testManifest})
	if err != nil || g1.Lease == nil {
		t.Fatalf("grant after restart: %+v, %v", g1, err)
	}
	if g1.Lease.Start != 4 || g1.Lease.End != 8 {
		t.Fatalf("first lease after restart is %s, want [4,8)", g1.Lease.Range())
	}
	wantDone := []string{urls[4], urls[5]}
	if !reflect.DeepEqual(g1.Lease.Completed, wantDone) {
		t.Fatalf("resumed lease completed set = %v, want %v", g1.Lease.Completed, wantDone)
	}
	journalLease(t, root, *g1.Lease, urls, []int{6, 7}, "done")
	if res := c2.result(ResultRequest{Worker: "w2", LeaseID: g1.Lease.ID, Attempt: g1.Lease.Attempt, Stats: farm.Stats{Sites: 2, Elapsed: time.Second, Panics: 1}}); !res.Accepted {
		t.Fatalf("result rejected: %s", res.Reason)
	}
	g2, _ := c2.grant(LeaseRequest{Worker: "w2", Manifest: testManifest})
	if g2.Lease == nil || g2.Lease.Start != 8 {
		t.Fatalf("second lease after restart = %+v, want [8,10)", g2)
	}
	journalLease(t, root, *g2.Lease, urls, []int{8, 9}, "done")
	if res := c2.result(ResultRequest{Worker: "w2", LeaseID: g2.Lease.ID, Attempt: g2.Lease.Attempt, Stats: farm.Stats{Sites: 2, Elapsed: time.Second, Panics: 2}}); !res.Accepted {
		t.Fatalf("result rejected: %s", res.Reason)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("resumed run complete but Done not closed")
	}

	// The merged view covers the whole feed exactly once, in feed order,
	// and matches what farm.Tally reports for the same sessions.
	logs, stats, err := c2.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != len(urls) {
		t.Fatalf("merged %d sessions, want %d", len(logs), len(urls))
	}
	for i, lg := range logs {
		if lg.FeedIndex != i || lg.SeedURL != urls[i] {
			t.Fatalf("merged log %d = {idx %d, %s}, want {idx %d, %s}", i, lg.FeedIndex, lg.SeedURL, i, urls[i])
		}
	}
	want := farm.Tally(logs)
	if !reflect.DeepEqual(stats.Outcomes, want.Outcomes) || stats.Sites != want.Sites {
		t.Fatalf("merged stats %+v diverge from Tally %+v", stats, want)
	}
	// Panics sums this incarnation's accepted results; no journal records
	// time or panics, and Elapsed is left to the coordinator's own clock.
	if stats.Panics != 3 || stats.Elapsed != 0 {
		t.Fatalf("merged panics = %d, elapsed = %v; want 3 and 0", stats.Panics, stats.Elapsed)
	}
}

// TestResumeRefusesForeignJournal: a resumed coordinator binds every shard
// directory to its own manifest, so a shard recorded under other flags is
// refused, and so is one holding sessions but no run manifest at all.
func TestResumeRefusesForeignJournal(t *testing.T) {
	urls := testURLs(4)
	for _, tc := range []struct {
		name     string
		manifest []byte
	}{
		{"other manifest", []byte(`{"numSites":10,"seed":99}`)},
		{"no manifest", nil},
	} {
		root := t.TempDir()
		j, err := journal.Open(ShardDir(root, Lease{Start: 0, End: 4, Attempt: 1}), journal.Options{Sync: journal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if tc.manifest != nil {
			if err := j.BindRun(tc.manifest); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.AppendSession(mkLog(0, urls[0], "done")); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = NewCoordinator(CoordinatorConfig{URLs: urls, Manifest: testManifest, Root: root, LeaseSites: 4, TTL: time.Minute, Resume: true})
		if err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("%s: foreign journal accepted (err = %v)", tc.name, err)
		}
	}
}

// TestOversizedRequestRefused: worker request bodies are capped, so an
// oversized lease request gets 413 and no lease.
func TestOversizedRequestRefused(t *testing.T) {
	c := newTestCoordinator(t, testURLs(4), 4, time.Minute, false)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	body := `{"worker":"w1","manifest":{"pad":"` + strings.Repeat("x", maxRequestBytes) + `"}}`
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized lease request answered %s, want 413", resp.Status)
	}
	if st := c.Status(); st.LeasesActive != 0 || len(st.Workers) != 0 {
		t.Fatalf("oversized request was granted a lease: %+v", st)
	}
}

// oldStages is the per-stage latency array workers of earlier versions
// still send in heartbeat progress and in result stats.
const oldStages = `"stages":[{"Stage":"render","Count":2,"Total":3000000,"Buckets":[0,2]}]`

// post sends body to the handler's path and decodes the JSON answer into
// resp, failing unless it is 200.
func post(t *testing.T, h http.Handler, path, body string, resp any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
}

func TestStatusView(t *testing.T) {
	urls := testURLs(10)
	c := newTestCoordinator(t, urls, 4, time.Minute, false)
	resp, _ := c.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	l := *resp.Lease
	// An older worker's heartbeat still carries its stage table; the field
	// is ignored and the heartbeat counts.
	var hb HeartbeatResponse
	post(t, c.Handler(), PathHeartbeat, fmt.Sprintf(`{"worker":"w1","leaseId":%d,"attempt":%d,"progress":{"done":2,%s}}`,
		l.ID, l.Attempt, oldStages), &hb)
	if !hb.Valid {
		t.Fatal("heartbeat carrying stages rejected")
	}
	st := c.Status()
	if st.TotalURLs != 10 || st.Leases != 3 || st.LeasesActive != 1 || st.LeasesPending != 2 {
		t.Fatalf("status totals wrong: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Name != "w1" || st.Workers[0].Lease != "[0,4)" || st.Workers[0].Done != 2 {
		t.Fatalf("worker view wrong: %+v", st.Workers)
	}
	if st.DoneURLs != 2 {
		t.Fatalf("DoneURLs = %d, want 2 (live heartbeat progress)", st.DoneURLs)
	}
	if !strings.Contains(st.String(), "worker w1") || !strings.Contains(st.String(), "lease [0,4)") {
		t.Fatalf("status text missing worker row:\n%s", st.String())
	}
	// So does its result.
	var res ResultResponse
	post(t, c.Handler(), PathResult, fmt.Sprintf(`{"worker":"w1","leaseId":%d,"attempt":%d,"stats":{"Sites":4,%s}}`,
		l.ID, l.Attempt, oldStages), &res)
	if !res.Accepted {
		t.Fatalf("result carrying stages rejected: %s", res.Reason)
	}
	if st := c.Status(); st.DoneURLs != 4 || st.LeasesDone != 1 {
		t.Fatalf("after the result: %d URLs and %d leases done, want 4 and 1", st.DoneURLs, st.LeasesDone)
	}
}

// TestStatusThroughput: sites/day and the ETA extrapolate from the
// sessions crawled so far at nanosecond resolution, so a crawl faster
// than a millisecond per site still reads an ETA.
func TestStatusThroughput(t *testing.T) {
	advance := fakeClock(t)
	c := newTestCoordinator(t, testURLs(4000), 1000, time.Minute, false)
	if st := c.Status(); st.EtaMs != 0 || st.SitesPerDay != 0 {
		t.Fatalf("nothing crawled yet, but eta %dms and %v sites/day", st.EtaMs, st.SitesPerDay)
	}
	resp, _ := c.grant(LeaseRequest{Worker: "w1", Manifest: testManifest})
	advance(500 * time.Millisecond)
	l := *resp.Lease
	if res := c.result(ResultRequest{Worker: "w1", LeaseID: l.ID, Attempt: l.Attempt, Stats: farm.Stats{Sites: 1000}}); !res.Accepted {
		t.Fatalf("result rejected: %s", res.Reason)
	}
	// 1,000 of 4,000 in 500ms: the other 3,000 take 1.5s.
	st := c.Status()
	if st.EtaMs != 1500 || st.SitesPerDay != 1000/0.5*86400 {
		t.Fatalf("eta %dms and %v sites/day, want 1500ms and %v", st.EtaMs, st.SitesPerDay, 1000/0.5*86400)
	}
	if !strings.Contains(st.String(), "| eta 1.5s |") {
		t.Fatalf("status line missing the ETA:\n%s", st.String())
	}
}

// TestStatusHandlerServesOnlyStatus: the handler a read-only status port
// serves answers GET /status and none of the wire protocol.
func TestStatusHandlerServesOnlyStatus(t *testing.T) {
	c := newTestCoordinator(t, testURLs(4), 4, time.Minute, false)
	lease := fmt.Sprintf(`{"worker":"w1","manifest":%s}`, testManifest)
	for _, path := range []string{PathLease, PathHeartbeat, PathResult} {
		rec := httptest.NewRecorder()
		c.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(lease)))
		if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s on the status handler answered %d, want 404 or 405", path, rec.Code)
		}
	}
	if st := c.Status(); st.LeasesActive != 0 || len(st.Workers) != 0 {
		t.Fatalf("the status handler granted a lease: %+v", st)
	}
	for query, want := range map[string]string{"": "fleet: 0/4 (0.0%) urls done", "?format=json": `"totalUrls": 4`} {
		rec := httptest.NewRecorder()
		c.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathStatus+query, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("GET /status%s answered %d, want 200 with %q:\n%s", query, rec.Code, want, rec.Body.String())
		}
	}
	// The same request on the protocol handler is granted.
	var resp LeaseResponse
	post(t, c.Handler(), PathLease, lease, &resp)
	if resp.Lease == nil {
		t.Fatalf("the protocol handler refused the lease request: %+v", resp)
	}
}
