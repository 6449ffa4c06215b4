package browser

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// hostileStep is one scripted response of FuzzNavigate's server.
type hostileStep struct {
	status    int
	location  string
	cookies   []string // Set-Cookie values
	challenge string   // X-Js-Challenge token
}

// redirects reports whether the step is a 3xx whose Location always
// resolves: one of the generated forms, not raw input bytes.
func (s hostileStep) redirects() bool {
	return s.status/100 == 3 && (strings.HasPrefix(s.location, "/p") || strings.HasPrefix(s.location, "http://h"))
}

// Cookie names the hostile server sets, and the three Set-Cookie forms it
// uses: a live cookie, a Max-Age=0 deletion and an epoch-Expires deletion.
var (
	hostileNames   = []string{"a", "b", "c", JSChallengeCookie}
	hostileStatus  = []int{200, 301, 302, 303, 307, 308, 404}
	hostileExpires = []string{"", "; Max-Age=0", "; Expires=Thu, 01 Jan 1970 00:00:00 GMT"}
)

// parseHostile decodes fuzz bytes into response steps, four bytes or more
// each: status, Location form, Set-Cookie count (two bytes per cookie),
// challenge.
func parseHostile(data []byte) []hostileStep {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var steps []hostileStep
	for len(data) > 0 {
		s := hostileStep{status: hostileStatus[int(next())%len(hostileStatus)]}
		switch k := next(); k % 4 {
		case 1:
			s.location = fmt.Sprintf("/p%d", k/4)
		case 2:
			s.location = fmt.Sprintf("http://h%d.test/q?k=%d", k%3, k/4)
		case 3:
			n := int(next() % 16)
			if n > len(data) {
				n = len(data)
			}
			s.location = string(data[:n])
			data = data[n:]
		}
		for n := next() % 3; n > 0; n-- {
			name, form := next(), next()
			s.cookies = append(s.cookies, fmt.Sprintf("%s=v%d%s", hostileNames[int(name)%len(hostileNames)], form/3, hostileExpires[int(form)%3]))
		}
		if c := next(); c%2 == 1 {
			s.challenge = fmt.Sprintf("t%d", c/2)
		}
		steps = append(steps, s)
	}
	return steps
}

// seenReq is one request as the hostile server observed it.
type seenReq struct {
	method, url, body, cookie string
}

// hostileRun navigates a fresh browser (or POSTs a credential form through
// it) against a server replaying steps in a cycle, and returns what the
// server saw, which step answered each request, the browser and the error.
func hostileRun(steps []hostileStep, post, js bool) ([]seenReq, []hostileStep, *Browser, error) {
	var seen []seenReq
	var served []hostileStep
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		r := seenReq{method: req.Method, url: req.URL.String(), cookie: req.Header.Get("Cookie")}
		if req.Body != nil {
			raw, _ := io.ReadAll(req.Body)
			r.body = string(raw)
		}
		seen = append(seen, r)
		s := hostileStep{status: 200}
		if len(steps) > 0 {
			s = steps[(len(seen)-1)%len(steps)]
		}
		served = append(served, s)
		resp := respond(s.status, nil, "<html><body>ok</body></html>")
		if s.location != "" {
			resp.Header.Set("Location", s.location)
		}
		for _, c := range s.cookies {
			resp.Header.Add("Set-Cookie", c)
		}
		if s.challenge != "" {
			resp.Header.Set(JSChallengeHeader, s.challenge)
		}
		return resp, nil
	})})
	p := DefaultProfile()
	p.JSCapable = js
	b.SetProfile(p)
	var err error
	if post {
		_, _, _, err = b.fetch("POST", "http://kit.test/submit", url.Values{"password": {"hunter2"}}, "document")
	} else {
		_, err = b.Navigate("http://kit.test/")
	}
	return seen, served, b, err
}

// cookieHeader is the Cookie header a jar must produce: sorted by name.
func cookieHeader(jar map[string]string) string {
	names := make([]string, 0, len(jar))
	for n := range jar {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + jar[n]
	}
	return strings.Join(parts, "; ")
}

// FuzzNavigate drives the cookie jar and the redirect loop with a hostile
// server whose statuses, Location values, Set-Cookie headers and JS
// challenges come from the input. Navigate (or a credential POST) must not
// panic and must give up with ErrTooManyRedirects after 10 requests; every
// request's Cookie header must be the jar so far in sorted name order, the
// same across two fresh browsers, with expired cookies gone from the jar;
// only a 307 or 308 may carry the POST body on to the next hop, and a JS
// challenge is answered at most once per fetch, and only by a JS-capable
// profile. Seeds are in testdata/fuzz/FuzzNavigate.
func FuzzNavigate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, post, js bool) {
		steps := parseHostile(data)
		seen, served, b, err := hostileRun(steps, post, js)
		again, _, b2, err2 := hostileRun(steps, post, js)
		if !reflect.DeepEqual(seen, again) || !reflect.DeepEqual(b.cookies, b2.cookies) ||
			!reflect.DeepEqual(b.NetLog, b2.NetLog) || fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("two fresh browsers differ:\n%v (%v)\n%v (%v)", seen, err, again, err2)
		}

		if len(seen) > 10 {
			t.Fatalf("%d requests in one fetch, want at most 10", len(seen))
		}
		loops := len(steps) > 0
		for _, s := range steps {
			loops = loops && s.redirects()
		}
		if loops && (!errors.Is(err, ErrTooManyRedirects) || len(seen) != 10) {
			t.Fatalf("an endless redirect chain ended with %v after %d requests", err, len(seen))
		}

		// Replay the responses into a model jar, checking each request
		// against the one before it. continued reports whether the fetch
		// went on after the last response.
		jar := map[string]string{}
		answered, continued := 0, false
		for i, r := range seen {
			if r.cookie != cookieHeader(jar) {
				t.Fatalf("request %d carried Cookie %q, want %q", i, r.cookie, cookieHeader(jar))
			}
			s := served[i]
			for _, c := range s.cookies {
				name, rest, _ := strings.Cut(c, "=")
				if value, attr, _ := strings.Cut(rest, ";"); attr != "" {
					delete(jar, name)
				} else {
					jar[name] = value
				}
			}
			if s.status/100 == 3 {
				if i+1 < len(seen) {
					nxt := seen[i+1]
					keeps := s.status == http.StatusTemporaryRedirect || s.status == http.StatusPermanentRedirect
					if keeps && (nxt.method != r.method || nxt.body != r.body) || !keeps && (nxt.method != "GET" || nxt.body != "") {
						t.Fatalf("a %d took %s %q on to %s %q", s.status, r.method, r.body, nxt.method, nxt.body)
					}
				} else if s.location != "" {
					_, jerr := joinURL(b.NetLog[i].URL, s.location)
					continued = jerr == nil
				}
				continue
			}
			// A non-redirect goes on only to answer a JS challenge: once
			// per fetch, by a JS-capable profile, re-requesting the same
			// method, URL and body.
			if !js || s.challenge == "" || answered > 0 {
				if i+1 < len(seen) {
					t.Fatalf("re-requested after a %d (challenge %q, js %v, answered %d)", s.status, s.challenge, js, answered)
				}
				continue
			}
			answered++
			jar[JSChallengeCookie] = s.challenge
			if i+1 == len(seen) {
				continued = true
			} else if nxt := seen[i+1]; nxt.method != r.method || nxt.body != r.body || nxt.url != r.url {
				t.Fatalf("challenge re-request changed %s %s %q to %s %s %q", r.method, r.url, r.body, nxt.method, nxt.url, nxt.body)
			}
		}
		if continued && len(seen) < 10 && err == nil {
			t.Fatalf("the fetch ended without error after %d requests, the last one answered %+v", len(seen), served[len(served)-1])
		}
		if errors.Is(err, ErrTooManyRedirects) != (len(seen) == 10 && continued) {
			t.Fatalf("%d requests, the last one answered %+v: err = %v", len(seen), served[len(served)-1], err)
		}
		if !reflect.DeepEqual(b.cookies, jar) {
			t.Fatalf("jar = %v, want %v", b.cookies, jar)
		}
	})
}
