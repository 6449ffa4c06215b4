package browser

import (
	"net/http"
	"testing"
)

func TestDefaultProfileIsHonest(t *testing.T) {
	p := DefaultProfile()
	if p.UserAgent != UserAgents()[0] {
		t.Errorf("default UA = %q, want pool index 0", p.UserAgent)
	}
	if p.Referrer != "" || p.AcceptLanguage != Languages()[0] || p.XForwardedFor != "" {
		t.Errorf("default profile not honest: %+v", p)
	}
	if p.JSCapable || p.PersistCookies {
		t.Errorf("default profile claims capabilities: %+v", p)
	}
	if got := p.Fingerprint(); got != "ua=0 ref=0 lang=0 geo=0 js=0 ck=0" {
		t.Errorf("default fingerprint = %q", got)
	}
}

func TestFingerprintTracksPoolIndices(t *testing.T) {
	p := Profile{
		UserAgent:      UserAgents()[2],
		Referrer:       Referrers()[1],
		AcceptLanguage: Languages()[3],
		XForwardedFor:  ForwardedAddrs()[1],
		JSCapable:      true,
		PersistCookies: true,
	}
	if got := p.Fingerprint(); got != "ua=2 ref=1 lang=3 geo=1 js=1 ck=1" {
		t.Errorf("fingerprint = %q", got)
	}
	// Off-pool values mark themselves visibly rather than aliasing index 0.
	p.UserAgent = "curl/8.0"
	if got := p.Fingerprint(); got != "ua=-1 ref=1 lang=3 geo=1 js=1 ck=1" {
		t.Errorf("off-pool fingerprint = %q", got)
	}
}

func TestProfileHeadersApplied(t *testing.T) {
	var got http.Header
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		got = req.Header.Clone()
		return respond(200, nil, "ok"), nil
	})})
	b.SetProfile(Profile{
		UserAgent:      UserAgents()[1],
		Referrer:       Referrers()[2],
		AcceptLanguage: Languages()[1],
		XForwardedFor:  ForwardedAddrs()[1],
	})
	if _, _, _, err := b.fetch("GET", "http://kit.test/", nil, "document"); err != nil {
		t.Fatal(err)
	}
	if got.Get("User-Agent") != UserAgents()[1] {
		t.Errorf("User-Agent = %q", got.Get("User-Agent"))
	}
	if got.Get("Referer") != Referrers()[2] {
		t.Errorf("Referer = %q", got.Get("Referer"))
	}
	if got.Get("Accept-Language") != Languages()[1] {
		t.Errorf("Accept-Language = %q", got.Get("Accept-Language"))
	}
	if got.Get("X-Forwarded-For") != ForwardedAddrs()[1] {
		t.Errorf("X-Forwarded-For = %q", got.Get("X-Forwarded-For"))
	}
}

func TestResetRestoresDefaultProfile(t *testing.T) {
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		return respond(200, nil, "ok"), nil
	})})
	b.SetProfile(Profile{UserAgent: UserAgents()[3], JSCapable: true})
	b.Reset()
	if b.profile != DefaultProfile() {
		t.Errorf("profile after Reset = %+v", b.profile)
	}
}

func TestJSChallengeAnsweredWhenCapable(t *testing.T) {
	const token = "deadbeef"
	var seen []recordedReq
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		record(&seen, req)
		if req.Header.Get("Cookie") == "" {
			// Probe: pose the challenge alongside the decoy body.
			return respond(200, map[string]string{JSChallengeHeader: token}, "<html><body>coming soon</body></html>"), nil
		}
		return respond(200, nil, "<html><body>real page</body></html>"), nil
	})})
	b.SetProfile(Profile{UserAgent: UserAgents()[0], AcceptLanguage: Languages()[0], JSCapable: true})
	body, _, _, err := b.fetch("GET", "http://kit.test/", nil, "document")
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("server saw %d requests, want probe + answer", len(seen))
	}
	if want := JSChallengeCookie + "=" + token; seen[1].cookie != want {
		t.Errorf("answer request Cookie = %q, want %q", seen[1].cookie, want)
	}
	if string(body) != "<html><body>real page</body></html>" {
		t.Errorf("fetch returned %q, want the post-answer page", body)
	}
	// Both hops land in the net log, the first carrying the challenge.
	if len(b.NetLog) != 2 || b.NetLog[0].JSChallenge != token || b.NetLog[1].JSChallenge != "" {
		t.Errorf("netlog = %+v", b.NetLog)
	}
}

func TestJSChallengeIgnoredWhenIncapable(t *testing.T) {
	var requests int
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		requests++
		return respond(200, map[string]string{JSChallengeHeader: "deadbeef"}, "<html><body>coming soon</body></html>"), nil
	})})
	if _, _, _, err := b.fetch("GET", "http://kit.test/", nil, "document"); err != nil {
		t.Fatal(err)
	}
	if requests != 1 {
		t.Errorf("JS-incapable profile answered the challenge (%d requests)", requests)
	}
}

func TestJSChallengeAnsweredOncePerFetch(t *testing.T) {
	// A server that rejects every answer must not trap the fetch in a loop.
	var requests int
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		requests++
		return respond(200, map[string]string{JSChallengeHeader: "deadbeef"}, "<html><body>coming soon</body></html>"), nil
	})})
	b.SetProfile(Profile{JSCapable: true})
	if _, _, _, err := b.fetch("GET", "http://kit.test/", nil, "document"); err != nil {
		t.Fatal(err)
	}
	if requests != 2 {
		t.Errorf("challenge re-answered: %d requests, want 2", requests)
	}
}

func TestCookieSnapshotAndImport(t *testing.T) {
	b := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		return respond(200, map[string]string{"Set-Cookie": "rv=1; Path=/"}, "ok"), nil
	})})
	if snap := b.CookieSnapshot(); snap != nil {
		t.Errorf("fresh jar snapshot = %v, want nil", snap)
	}
	if _, _, _, err := b.fetch("GET", "http://kit.test/", nil, "document"); err != nil {
		t.Fatal(err)
	}
	snap := b.CookieSnapshot()
	if snap["rv"] != "1" {
		t.Fatalf("snapshot = %v", snap)
	}
	// The snapshot is a copy: importing it into a second browser must not
	// alias the first jar.
	b2 := New(Options{Transport: transportFunc(func(req *http.Request) (*http.Response, error) {
		return respond(200, nil, "ok"), nil
	})})
	b2.ImportCookies(snap)
	snap["rv"] = "tampered"
	if b2.cookies["rv"] != "1" {
		t.Errorf("imported jar aliases the snapshot map")
	}
}
