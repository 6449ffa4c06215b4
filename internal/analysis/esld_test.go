package analysis

import (
	"net/url"
	"strings"
	"testing"
)

// esldRef is ESLD as url.Parse and strings.Split compute it, with no fast
// path: the reference the string-reading ESLD must equal.
func esldRef(rawURL string) string {
	host := rawURL
	if strings.Contains(rawURL, "://") {
		if u, err := url.Parse(rawURL); err == nil {
			host = u.Host
		}
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	parts := strings.Split(host, ".")
	if len(parts) <= 2 {
		return host
	}
	n := 2
	if multiLevelSuffixes[strings.Join(parts[len(parts)-2:], ".")] {
		n = 3
	}
	return strings.Join(parts[len(parts)-n:], ".")
}

// TestESLDMatchesReference checks ESLD against esldRef on URLs of every
// shape a session log can hold, the plain ones its fast path reads and
// the ones it must leave to url.Parse.
func TestESLDMatchesReference(t *testing.T) {
	hosts := []string{"", "a", "a.test", "login.chase-3-1.test", "v12.netflix-c7.test", "x.bank.co.uk", "co.uk",
		"phish.co.uk", "a..b", ".a.b", "a.b.", "Upper.Example.COM", "h_u.test", "user@h.test", "h.test:8080", "[::1]:80", "xn--bcher-kva.test"}
	tails := []string{"", "/", "/s2", "/p?q=1", "?q", "#f", "/a%20b", "/a%zz", "/a b", "/a\x01b", "/a\x7f", "#%zz", "/x?y#z", "/é"}
	var urls []string
	for _, h := range hosts {
		urls = append(urls, h)
		for _, scheme := range []string{"http://", "https://", "HTTP://", "ftp://", "http:/", "http:///"} {
			for _, tail := range tails {
				urls = append(urls, scheme+h+tail)
			}
		}
	}
	for _, u := range urls {
		if got, want := ESLD(u), esldRef(u); got != want {
			t.Errorf("ESLD(%q) = %q, reference %q", u, got, want)
		}
	}
}

// TestESLDAllocs: the report pass takes the eSLD of every logged page
// several times over; a plain URL costs no allocation.
func TestESLDAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { esldSink = ESLD("http://login.barclays-12-3.co.uk/s3?x=1") }); n != 0 {
		t.Errorf("ESLD allocates %.0f times per plain URL, want 0", n)
	}
}

var esldSink string
