package farm_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/report"
)

// TestStagesIdenticalAcrossWorkerCounts pins the stage table's
// determinism: it folds session-logical traces, so a 1-worker run and a
// 30-worker run of the same feed print the same table byte for byte,
// percentiles included — impossible with wall-clock stage timing.
func TestStagesIdenticalAcrossWorkerCounts(t *testing.T) {
	reg, urls := farm.StreamFixture(t, 400, 30)
	serial, _ := farm.Run(farm.Config{Workers: 1, Crawler: farm.NewTestCrawler(reg)}, urls)
	wide, _ := farm.Run(farm.Config{Workers: 30, Crawler: farm.NewTestCrawler(reg)}, urls)

	a, b := report.StageTable(serial), report.StageTable(wide)
	if a != b {
		t.Fatalf("stage tables diverge across worker counts:\n1:\n%s30:\n%s", a, b)
	}
	for _, line := range strings.Split(a, "\n") {
		// Stage, Calls, Total, Mean, P50, P90, P99.
		if f := strings.Fields(line); len(f) == 7 && f[0] == "render" && f[1] != "0" && f[4] != "0s" {
			return
		}
	}
	t.Fatalf("render percentiles missing from the stage table:\n%s", a)
}

// TestResumedStatsMatchUninterrupted: a crawl split across two runs (as
// journal resume splits it) must tally to exactly the Stats, and fold to
// exactly the stage table, of one uninterrupted run.
func TestResumedStatsMatchUninterrupted(t *testing.T) {
	reg, urls := farm.StreamFixture(t, 440, 24)
	fullLogs, fullStats := farm.Run(farm.Config{Workers: 6, Crawler: farm.NewTestCrawler(reg)}, urls)

	// First "run" crawls the even indices, the "resumed run" the rest —
	// the exact split Config.Skip produces when a journal already holds
	// half the URLs.
	combined := make([]*crawler.SessionLog, len(urls))
	for _, skipEven := range []bool{true, false} {
		_, err := farm.RunStream(farm.Config{
			Workers: 6,
			Crawler: farm.NewTestCrawler(reg),
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

	if got, want := report.StageTable(combined), report.StageTable(fullLogs); got != want {
		t.Errorf("resumed stage table diverges from uninterrupted:\n%s\nvs\n%s", got, want)
	}
	resumed, uninterrupted := farm.Tally(combined), farm.Tally(fullLogs)
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Errorf("resumed tally %+v diverges from uninterrupted %+v", resumed, uninterrupted)
	}
	// And the tallied view matches what the uninterrupted live run itself
	// reported, apart from its wall time.
	fullStats.Elapsed = 0
	if !reflect.DeepEqual(resumed, fullStats) {
		t.Errorf("resumed tally %+v diverges from the live run's %+v", resumed, fullStats)
	}
}
