package farm

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/crawler"
	"repro/internal/metrics"
)

// TestStagesIdenticalAcrossWorkerCounts pins the telemetry acceptance
// property: stage latency histograms (and therefore p50/p90/p99) derive
// from session-logical traces, so a 1-worker run and a 30-worker run of
// the same feed report byte-identical Stats.Stages — impossible with
// wall-clock stage timing.
func TestStagesIdenticalAcrossWorkerCounts(t *testing.T) {
	reg, urls := streamFixture(t, 400, 30)
	_, serial := Run(Config{Workers: 1, Crawler: testCrawler(reg, nil)}, urls)
	_, wide := Run(Config{Workers: 30, Crawler: testCrawler(reg, nil)}, urls)

	a, err := json.Marshal(serial.Stages)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wide.Stages)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("Stages diverge across worker counts:\n1:  %s\n30: %s", a, b)
	}
	var renderP50 bool
	for _, s := range serial.Stages {
		if s.Stage == "render" && s.Count > 0 && s.P50() > 0 && s.P99() >= s.P50() {
			renderP50 = true
		}
	}
	if !renderP50 {
		t.Fatalf("render percentiles missing from Stages: %+v", serial.Stages)
	}
}

// TestResumedStatsMatchUninterrupted is the regression test for the
// stats double-counting audit: a crawl split across two runs (as journal
// resume splits it) must tally to exactly the Stats — including stage
// histograms — of one uninterrupted run. Under the old scheme Stages came
// from live per-attempt worker collectors (lost for killed runs, and
// counting superseded attempts), so resumed and uninterrupted runs could
// not agree.
func TestResumedStatsMatchUninterrupted(t *testing.T) {
	reg, urls := streamFixture(t, 440, 24)
	fullLogs, fullStats := Run(Config{Workers: 6, Crawler: testCrawler(reg, nil)}, urls)

	// First "run" crawls the even indices, the "resumed run" the rest —
	// the exact split Config.Skip produces when a journal already holds
	// half the URLs.
	combined := make([]*crawler.SessionLog, len(urls))
	for _, skipEven := range []bool{true, false} {
		skipEven := skipEven
		_, err := RunStream(Config{
			Workers: 6,
			Crawler: testCrawler(reg, nil),
			Skip:    func(idx int, _ string) bool { return (idx%2 == 0) == skipEven },
			Sink: func(idx int, lg *crawler.SessionLog) error {
				combined[idx] = lg
				return nil
			},
		}, urls)
		if err != nil {
			t.Fatalf("RunStream: %v", err)
		}
	}

	resumed := Tally(combined)
	uninterrupted := Tally(fullLogs)
	if !reflect.DeepEqual(resumed.Stages, uninterrupted.Stages) {
		t.Errorf("resumed Stages diverge from uninterrupted:\n%+v\nvs\n%+v",
			resumed.Stages, uninterrupted.Stages)
	}
	// And the tallied view matches what the uninterrupted live run itself
	// reported — one source of truth across all three paths.
	if !reflect.DeepEqual(resumed.Stages, fullStats.Stages) {
		t.Errorf("tallied Stages diverge from the live run's:\n%+v\nvs\n%+v",
			resumed.Stages, fullStats.Stages)
	}
	if !reflect.DeepEqual(resumed.Outcomes, uninterrupted.Outcomes) {
		t.Errorf("Outcomes = %v, want %v", resumed.Outcomes, uninterrupted.Outcomes)
	}
	if resumed.Sites != uninterrupted.Sites || resumed.Retries != uninterrupted.Retries ||
		resumed.Degraded != uninterrupted.Degraded {
		t.Errorf("resumed tally %+v diverges from uninterrupted %+v", resumed, uninterrupted)
	}
}

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
	// The monitor's stage view matches the run's Stats exactly: both fold
	// the same finished traces.
	if !reflect.DeepEqual(p.Stages, stats.Stages) {
		t.Errorf("monitor Stages %+v diverge from run Stages %+v", p.Stages, stats.Stages)
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
		Stages                                      []metrics.StageStat
	}
	p = mon.Snapshot()
	got := counts{p.Done, p.Failed, p.Degraded, p.FastPathed, p.Retried, p.Stages}
	want := counts{stats.Sites, stats.Outcomes[OutcomeGaveUp] + stats.Outcomes[OutcomeLost],
		stats.Degraded, stats.FastPathed, stats.Retries, stats.Stages}
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
