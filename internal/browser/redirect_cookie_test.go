package browser

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// transportFunc adapts a function to http.RoundTripper for scripted servers.
type transportFunc func(*http.Request) (*http.Response, error)

func (f transportFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// recordedReq captures what the server actually observed on one request.
type recordedReq struct {
	method string
	path   string
	body   string
	cookie string
}

func respond(status int, hdr map[string]string, body string) *http.Response {
	rec := httptest.NewRecorder()
	for k, v := range hdr {
		rec.Header().Set(k, v)
	}
	rec.WriteHeader(status)
	rec.Body.WriteString(body)
	return rec.Result()
}

// record reads and stores the request as the server saw it.
func record(seen *[]recordedReq, req *http.Request) {
	var body string
	if req.Body != nil {
		raw, _ := io.ReadAll(req.Body)
		body = string(raw)
	}
	*seen = append(*seen, recordedReq{
		method: req.Method,
		path:   req.URL.Path,
		body:   body,
		cookie: req.Header.Get("Cookie"),
	})
}

func TestRedirect307PreservesMethodAndBody(t *testing.T) {
	for _, status := range []int{http.StatusTemporaryRedirect, http.StatusPermanentRedirect} {
		var seen []recordedReq
		b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
			record(&seen, req)
			if req.URL.Path == "/submit" {
				return respond(status, map[string]string{"Location": "/final"}, ""), nil
			}
			return respond(200, nil, "<html><body>landed</body></html>"), nil
		})})
		form := url.Values{"password": {"hunter2"}, "email": {"a@b.c"}}
		body, finalURL, st, err := b.fetch("POST", "http://kit.test/submit", form, "document")
		if err != nil {
			t.Fatalf("%d: fetch: %v", status, err)
		}
		if st != 200 || !strings.Contains(string(body), "landed") || !strings.HasSuffix(finalURL, "/final") {
			t.Fatalf("%d: landed at %q status %d", status, finalURL, st)
		}
		if len(seen) != 2 {
			t.Fatalf("%d: server saw %d requests, want 2", status, len(seen))
		}
		// The redirected hop must re-POST the identical credential body.
		if seen[1].method != "POST" {
			t.Errorf("%d: redirect hop method = %s, want POST", status, seen[1].method)
		}
		if seen[1].body != seen[0].body || !strings.Contains(seen[1].body, "password=hunter2") {
			t.Errorf("%d: redirect hop body = %q, want %q", status, seen[1].body, seen[0].body)
		}
		// And the net log must attribute the carried credentials to BOTH hops:
		// the redirect hop is still a credential-bearing request.
		if len(b.NetLog) != 2 {
			t.Fatalf("%d: netlog has %d entries, want 2", status, len(b.NetLog))
		}
		for i, e := range b.NetLog {
			if e.Method != "POST" {
				t.Errorf("%d: netlog[%d].Method = %s, want POST", status, i, e.Method)
			}
			if len(e.CarriedData) != 2 {
				t.Errorf("%d: netlog[%d].CarriedData = %v", status, i, e.CarriedData)
			}
		}
		if b.NetLog[1].Kind != "redirect" {
			t.Errorf("%d: netlog[1].Kind = %q", status, b.NetLog[1].Kind)
		}
	}
}

func TestRedirect3xxRewritesToGet(t *testing.T) {
	for _, status := range []int{http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther} {
		var seen []recordedReq
		b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
			record(&seen, req)
			if req.URL.Path == "/submit" {
				return respond(status, map[string]string{"Location": "/thanks"}, ""), nil
			}
			return respond(200, nil, "<html><body>ok</body></html>"), nil
		})})
		if _, _, _, err := b.fetch("POST", "http://kit.test/submit", url.Values{"u": {"x"}}, "document"); err != nil {
			t.Fatalf("%d: fetch: %v", status, err)
		}
		if len(seen) != 2 {
			t.Fatalf("%d: server saw %d requests, want 2", status, len(seen))
		}
		if seen[1].method != "GET" || seen[1].body != "" {
			t.Errorf("%d: redirect hop = %s body %q, want bodyless GET", status, seen[1].method, seen[1].body)
		}
		if b.NetLog[1].CarriedData != nil {
			t.Errorf("%d: GET hop still logs carried data %v", status, b.NetLog[1].CarriedData)
		}
	}
}

func TestRedirectEmptyLocation(t *testing.T) {
	// A 3xx with no Location header is a dead end, not a crash and not an
	// infinite loop: the fetch terminates with the redirect status itself.
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		return respond(http.StatusFound, nil, ""), nil
	})})
	body, finalURL, status, err := b.fetch("GET", "http://kit.test/", nil, "document")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if status != http.StatusFound || len(body) != 0 {
		t.Errorf("status = %d body = %q, want bare 302", status, body)
	}
	if finalURL != "http://kit.test/" {
		t.Errorf("finalURL = %q", finalURL)
	}
	if len(b.NetLog) != 1 {
		t.Errorf("netlog has %d entries, want 1", len(b.NetLog))
	}
}

// chainTransport serves /hop/N -> /hop/N+1 up to depth, then 200.
func chainTransport(depth int) http.RoundTripper {
	return transportFunc(func(req *http.Request) (*http.Response, error) {
		var n int
		fmt.Sscanf(req.URL.Path, "/hop/%d", &n)
		if n < depth {
			return respond(http.StatusFound, map[string]string{"Location": fmt.Sprintf("/hop/%d", n+1)}, ""), nil
		}
		return respond(200, nil, "<html><body>end</body></html>"), nil
	})
}

func TestRedirectHopLimit(t *testing.T) {
	// Nine redirects plus the final document fill exactly the 10-hop budget.
	b := New(Options{Transport: chainTransport(9)})
	body, finalURL, status, err := b.fetch("GET", "http://kit.test/hop/0", nil, "document")
	if err != nil {
		t.Fatalf("9-redirect chain: %v", err)
	}
	if status != 200 || !strings.Contains(string(body), "end") || !strings.HasSuffix(finalURL, "/hop/9") {
		t.Errorf("9-redirect chain landed at %q status %d", finalURL, status)
	}

	// One more redirect exceeds the budget.
	b = New(Options{Transport: chainTransport(10)})
	if _, _, _, err := b.fetch("GET", "http://kit.test/hop/0", nil, "document"); !errors.Is(err, ErrTooManyRedirects) {
		t.Errorf("10-redirect chain err = %v, want ErrTooManyRedirects", err)
	}
}

func TestCookieDeletionRoundTrips(t *testing.T) {
	cases := []struct {
		name   string
		delete string // Set-Cookie header value that should delete "sid"
	}{
		{"max-age-zero", "sid=; Max-Age=0"},
		{"past-expires", "sid=; Expires=Thu, 01 Jan 1970 00:00:00 GMT"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seen []recordedReq
			b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
				record(&seen, req)
				switch req.URL.Path {
				case "/set":
					return respond(200, map[string]string{"Set-Cookie": "sid=abc123; Path=/"}, "<html></html>"), nil
				case "/del":
					return respond(200, map[string]string{"Set-Cookie": tc.delete}, "<html></html>"), nil
				}
				return respond(200, nil, "<html></html>"), nil
			})})
			fetch := func(path string) {
				t.Helper()
				if _, _, _, err := b.fetch("GET", "http://kit.test"+path, nil, "document"); err != nil {
					t.Fatal(err)
				}
			}
			fetch("/set")
			fetch("/check")
			if got := seen[1].cookie; got != "sid=abc123" {
				t.Fatalf("after /set, Cookie = %q, want sid=abc123", got)
			}
			fetch("/del")
			fetch("/check")
			if got := seen[3].cookie; got != "" {
				t.Errorf("after %s deletion, Cookie = %q, want none", tc.name, got)
			}
			if _, live := b.cookies["sid"]; live {
				t.Errorf("jar still holds sid after %s deletion", tc.name)
			}
		})
	}
}

func TestEpochExpired(t *testing.T) {
	cases := []struct {
		name string
		c    http.Cookie
		want bool
	}{
		{"live", http.Cookie{Name: "a", Value: "1"}, false},
		{"max-age-positive", http.Cookie{Name: "a", Value: "1", MaxAge: 60}, false},
		{"max-age-delete", http.Cookie{Name: "a", MaxAge: -1}, true},
		{"expires-epoch", http.Cookie{Name: "a", Expires: time.Unix(0, 0)}, true},
		{"expires-pre-epoch", http.Cookie{Name: "a", Expires: time.Unix(0, 0).Add(-time.Hour)}, true},
		{"expires-future", http.Cookie{Name: "a", Expires: time.Unix(0, 0).Add(time.Hour)}, false},
	}
	for _, tc := range cases {
		if got := epochExpired(&tc.c); got != tc.want {
			t.Errorf("%s: epochExpired = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCarriedDataLogsEveryMultiValue(t *testing.T) {
	// A keyed exfil beacon repeats its field per keystroke; the log must
	// carry every value, in sorted field order.
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		return respond(200, nil, "ok"), nil
	})})
	form := url.Values{"d": {"h", "hu", "hun"}, "a": {"first"}}
	if _, _, _, err := b.fetch("POST", "http://kit.test/k", form, "beacon"); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "h", "hu", "hun"}
	got := b.NetLog[0].CarriedData
	if len(got) != len(want) {
		t.Fatalf("CarriedData = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CarriedData = %v, want %v", got, want)
		}
	}
}
