package farm

import (
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/phishserver"
)

type transportFunc func(*http.Request) (*http.Response, error)

func (f transportFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// slotFixture serves n quick sites through wrap(phishserver transport).
func slotFixture(base, n int, wrap func(inner http.RoundTripper) http.RoundTripper) (*crawler.Crawler, []string) {
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < n; i++ {
		s := quickSite(fmtHost(base + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	c := testCrawler(reg, nil)
	tr := wrap(phishserver.Transport{Registry: reg})
	c.NewBrowser = func() *browser.Browser { return browser.New(browser.Options{Transport: tr}) }
	return c, urls
}

// concurrency counts sessions computing and in flight through the farm's
// observe hook, keeping the highest value of each.
type concurrency struct {
	mu                        sync.Mutex
	computing, inFlight       int
	maxComputing, maxInFlight int
}

func (c *concurrency) observe(computing, inFlight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.computing += computing
	c.inFlight += inFlight
	c.maxComputing = max(c.maxComputing, c.computing)
	c.maxInFlight = max(c.maxInFlight, c.inFlight)
}

// runOrReport runs the farm, failing the test if it has not finished in a
// minute: the timeout only reports a deadlock, it paces nothing.
func runOrReport(t *testing.T, cfg Config, urls []string) ([]*crawler.SessionLog, Stats) {
	t.Helper()
	type result struct {
		logs  []*crawler.SessionLog
		stats Stats
	}
	done := make(chan result, 1)
	go func() {
		logs, stats := Run(cfg, urls)
		done <- result{logs, stats}
	}()
	select {
	case r := <-done:
		return r.logs, r.stats
	case <-time.After(time.Minute):
		t.Fatal("farm did not finish within a minute: deadlocked")
		return nil, Stats{}
	}
}

// TestRoundTripGivesSlotBack pins that a worker is a compute slot, not a
// session: with one worker, the first site's landing request does not
// answer until the second site's request arrives, which only a farm that
// hands the slot on during the round trip lets happen.
func TestRoundTripGivesSlotBack(t *testing.T) {
	arrived := make(chan struct{})
	var once sync.Once
	var first, second string
	c, urls := slotFixture(400, 2, func(inner http.RoundTripper) http.RoundTripper {
		return transportFunc(func(req *http.Request) (*http.Response, error) {
			switch req.URL.Host {
			case second:
				once.Do(func() { close(arrived) })
			case first:
				<-arrived
			}
			return inner.RoundTrip(req)
		})
	})
	first, second = hostOf(urls[0]), hostOf(urls[1])
	logs, _ := runOrReport(t, Config{Workers: 1, Crawler: c}, urls)
	for i, l := range logs {
		if l == nil || l.Outcome != crawler.OutcomeCompleted {
			t.Fatalf("site %d: %+v", i, l)
		}
	}
}

// TestSlotBounds pins both concurrency bounds through the observe hook:
// sessions computing never exceed Workers, and sessions in flight never
// exceed 4×Workers. The first landing requests are held until 4×Workers of
// them wait at once, so the in-flight bound is reached, not just honoured.
func TestSlotBounds(t *testing.T) {
	const workers, sites = 2, 40
	want := inFlightPerWorker * workers
	var waiting atomic.Int32
	full := make(chan struct{})
	c, urls := slotFixture(500, sites, func(inner http.RoundTripper) http.RoundTripper {
		return transportFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/" {
				if n := waiting.Add(1); n == int32(want) {
					close(full)
				} else if n < int32(want) {
					<-full
				}
			}
			return inner.RoundTrip(req)
		})
	})
	var cc concurrency
	logs, _ := runOrReport(t, Config{Workers: workers, Crawler: c, observe: cc.observe}, urls)
	for i, l := range logs {
		if l == nil || l.Outcome != crawler.OutcomeCompleted {
			t.Fatalf("site %d: %+v", i, l)
		}
	}
	if cc.maxComputing > workers || cc.maxComputing < 1 {
		t.Errorf("at most %d sessions computed at once, want 1..%d", cc.maxComputing, workers)
	}
	if cc.maxInFlight != want {
		t.Errorf("at most %d sessions were in flight at once, want %d", cc.maxInFlight, want)
	}
	if cc.computing != 0 || cc.inFlight != 0 {
		t.Errorf("after the run %d sessions compute and %d are in flight, want 0 and 0", cc.computing, cc.inFlight)
	}
}

// TestPanicMidRoundTripKeepsSlot pins that a transport panic, recovered by
// crawlGuarded, leaves the slot count intact: the browser takes the slot
// back in a defer, so the panicking session gives back exactly the slot
// it holds and every later session still runs.
func TestPanicMidRoundTripKeepsSlot(t *testing.T) {
	var panicked atomic.Bool
	c, urls := slotFixture(600, 6, func(inner http.RoundTripper) http.RoundTripper {
		return transportFunc(func(req *http.Request) (*http.Response, error) {
			if panicked.CompareAndSwap(false, true) {
				panic("transport crashed mid-round-trip")
			}
			return inner.RoundTrip(req)
		})
	})
	var cc concurrency
	logs, stats := runOrReport(t, Config{
		Workers: 1, Crawler: c, observe: cc.observe,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	}, urls)
	for i, l := range logs {
		if l == nil || l.Outcome != crawler.OutcomeCompleted {
			t.Fatalf("site %d: %+v", i, l)
		}
	}
	if stats.Panics != 1 || stats.Degraded != 1 {
		t.Errorf("panics = %d, degraded = %d, want 1 and 1", stats.Panics, stats.Degraded)
	}
	if cc.maxComputing != 1 || cc.computing != 0 {
		t.Errorf("computing peaked at %d and ended at %d, want 1 and 0", cc.maxComputing, cc.computing)
	}
}

func hostOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		panic(err)
	}
	return u.Host
}
