package farm

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/crawler"
)

// TestMonitorProgress drives a run with a Monitor attached and checks the
// snapshot the status endpoint would serve.
func TestMonitorProgress(t *testing.T) {
	reg, urls := streamFixture(t, 470, 12)
	mon := NewMonitor()
	mon.SetTotal(len(urls))
	_, stats := Run(Config{Workers: 4, Crawler: testCrawler(reg, nil), Monitor: mon}, urls)

	p := mon.Snapshot()
	if p.Total != len(urls) || p.Done != len(urls) {
		t.Errorf("progress = %d/%d, want %d/%d", p.Done, p.Total, len(urls), len(urls))
	}
	if p.Failed != 0 || p.Panics != 0 {
		t.Errorf("clean run reported failures: %+v", p)
	}
	if p.SitesPerDay <= 0 {
		t.Error("throughput not computed")
	}
	if p.ETA != 0 {
		t.Errorf("finished run still reports ETA %v", p.ETA)
	}
	line := p.String()
	if !strings.Contains(line, "progress: 12/12 (100.0%) done") {
		t.Errorf("progress line = %q", line)
	}

	// A run with retries, gave-ups and fast-pathed sessions: every
	// session count the monitor serves equals the run's Stats, because
	// both count finished sessions by the same rule.
	reg, urls = streamFixture(t, 490, 30)
	in := &chaos.Injector{Profile: chaos.Profile{DeadRate: 0.2, FlakyRate: 0.3, FlakyFailures: 1}, Seed: 5}
	mon = NewMonitor()
	_, stats = Run(Config{
		Workers: 4, Crawler: chaosFarmCrawler(reg, in, 150*time.Millisecond), Monitor: mon,
		MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		FastPath: func(idx int, url string) *crawler.SessionLog {
			if idx%4 != 0 {
				return nil
			}
			return &crawler.SessionLog{SeedURL: url, Outcome: crawler.OutcomeAttributed}
		},
	}, urls)
	if stats.Retries == 0 || stats.Outcomes[OutcomeGaveUp] == 0 || stats.Degraded == 0 || stats.FastPathed == 0 {
		t.Fatalf("fixture must retry, give up, degrade and fast-path: %+v", stats)
	}
	type counts struct {
		Done, Failed, Degraded, FastPathed, Retried int
	}
	p = mon.Snapshot()
	got := counts{p.Done, p.Failed, p.Degraded, p.FastPathed, p.Retried}
	want := counts{stats.Sites, stats.Outcomes[OutcomeGaveUp] + stats.Outcomes[OutcomeLost],
		stats.Degraded, stats.FastPathed, stats.Retries}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("monitor %+v diverges from run Stats %+v", got, want)
	}

	// Resume accounting: pre-completed URLs count toward Done.
	mon2 := NewMonitor()
	mon2.SetTotal(10)
	mon2.AddPreCompleted(4)
	if got := mon2.Snapshot(); got.Done != 4 || got.PreCompleted != 4 {
		t.Errorf("pre-completed snapshot = %+v", got)
	}
	if !strings.Contains(mon2.Snapshot().String(), "(4 resumed)") {
		t.Errorf("resumed marker missing: %q", mon2.Snapshot().String())
	}

	// A nil monitor is a valid no-op everywhere the farm touches it.
	var nilMon *Monitor
	nilMon.SetTotal(1)
	nilMon.AddPreCompleted(1)
	nilMon.noteDone(&crawler.SessionLog{})
	nilMon.noteRetry()
	nilMon.notePanic()
	if got := nilMon.Snapshot(); got.Total != 0 {
		t.Errorf("nil snapshot = %+v", got)
	}
}
