package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// grant names one lease a worker was granted.
type grant struct {
	id, attempt int
	worker      string
}

// FuzzCoordinatorRequests sends a script of arbitrary bodies to the lease,
// heartbeat and result handlers of a coordinator over a 10-URL feed in
// 3-URL leases. Each line of the script is one request: its first byte
// picks the endpoint and the rest is the body. Every request must be
// answered 200 or 4xx without a panic, and after each one every range the
// coordinator holds done must have been granted, in a lease response, to
// the worker and attempt it records as completing it. Seeds are in
// testdata/fuzz/FuzzCoordinatorRequests.
func FuzzCoordinatorRequests(f *testing.F) {
	paths := []string{PathLease, PathHeartbeat, PathResult}
	f.Fuzz(func(t *testing.T, script []byte) {
		c, err := NewCoordinator(CoordinatorConfig{
			URLs: testURLs(10), Manifest: testManifest, Root: t.TempDir(),
			LeaseSites: 3, TTL: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		granted := map[grant]bool{}
		for i, line := range bytes.SplitN(script, []byte{'\n'}, 16) {
			if len(line) == 0 {
				continue
			}
			path := paths[int(line[0])%len(paths)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(line[1:])))
			if code := rec.Code; code != http.StatusOK && (code < 400 || code >= 500) {
				t.Fatalf("request %d to %s answered %d: %q", i, path, code, line[1:])
			}
			if path == PathLease && rec.Code == http.StatusOK {
				var req LeaseRequest
				var resp LeaseResponse
				// Decoded as the handler does: the first JSON value.
				if err := json.NewDecoder(bytes.NewReader(line[1:])).Decode(&req); err != nil {
					t.Fatalf("request %d: lease granted to an undecodable body: %v", i, err)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("request %d: lease response %q: %v", i, rec.Body.Bytes(), err)
				}
				if resp.Lease != nil {
					granted[grant{resp.Lease.ID, resp.Lease.Attempt, req.Worker}] = true
				}
			}
			c.mu.Lock()
			for _, ls := range c.leases {
				if ls.state == leaseDone && !granted[grant{ls.id, ls.doneAttempt, ls.doneBy}] {
					c.mu.Unlock()
					t.Fatalf("request %d: lease %d done by %q attempt %d, never granted them", i, ls.id, ls.doneBy, ls.doneAttempt)
				}
			}
			c.mu.Unlock()
		}
	})
}
