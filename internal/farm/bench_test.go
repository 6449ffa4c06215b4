package farm

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/crawler"
)

// BenchmarkRunStream times the farm layer alone: 200 quick sites at
// Workers 2, whose every request waits 1 ms on a timer (the network) and
// whose sink waits 100 µs on a timer per delivery (the journal's fsync).
// The sessions render no pixels, so sites/s measures how well admission
// overlaps those waits with the little compute a session costs.
func BenchmarkRunStream(b *testing.B) {
	const sites, rtt, fsync = 200, time.Millisecond, 100 * time.Microsecond
	c, urls := slotFixture(0, sites, func(inner http.RoundTripper) http.RoundTripper {
		return transportFunc(func(req *http.Request) (*http.Response, error) {
			time.Sleep(rtt)
			return inner.RoundTrip(req)
		})
	})
	cfg := Config{Workers: 2, Crawler: c, Sink: func(int, *crawler.SessionLog) error {
		time.Sleep(fsync)
		return nil
	}}
	for b.Loop() {
		if stats, err := RunStream(cfg, urls); err != nil || stats.Outcomes[crawler.OutcomeCompleted] != sites {
			b.Fatalf("stats %+v, err %v", stats, err)
		}
	}
	b.ReportMetric(float64(sites*b.N)/b.Elapsed().Seconds(), "sites/s")
}
