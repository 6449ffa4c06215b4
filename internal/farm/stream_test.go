package farm

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/metrics"
	"repro/internal/phishserver"
)

// streamFixture builds a registry of n quick sites and returns their URLs.
func streamFixture(t *testing.T, base, n int) (*phishserver.Registry, []string) {
	t.Helper()
	reg := phishserver.NewRegistry()
	var urls []string
	for i := 0; i < n; i++ {
		s := quickSite(fmtHost(base + i))
		reg.AddSite(s)
		urls = append(urls, s.SeedURL())
	}
	return reg, urls
}

func TestRunStreamDeliversEverySessionOnce(t *testing.T) {
	reg, urls := streamFixture(t, 300, 30)
	var mu sync.Mutex
	got := map[int]*crawler.SessionLog{}
	stats, err := RunStream(Config{
		Workers: 6,
		Crawler: testCrawler(reg, nil),
		Sink: func(idx int, lg *crawler.SessionLog) error {
			// Deliveries may overlap: the sink locks for itself.
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[idx]; dup {
				t.Errorf("index %d delivered twice", idx)
			}
			got[idx] = lg
			return nil
		},
	}, urls)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(got) != len(urls) {
		t.Fatalf("sink saw %d sessions, want %d", len(got), len(urls))
	}
	for idx, lg := range got {
		if lg.SeedURL != urls[idx] {
			t.Errorf("index %d carries URL %s, want %s", idx, lg.SeedURL, urls[idx])
		}
		if lg.FeedIndex != idx {
			t.Errorf("FeedIndex = %d, want %d", lg.FeedIndex, idx)
		}
	}
	if stats.Sites != len(urls) {
		t.Errorf("Sites = %d, want %d", stats.Sites, len(urls))
	}
}

// TestRunStreamConcurrentSink pins that deliveries run outside the farm's
// tally lock: the first delivery waits until a second one has started, which
// only completes if the farm lets two sink calls overlap. A farm that
// serialized its sink would fail here on the timeout instead of hanging.
func TestRunStreamConcurrentSink(t *testing.T) {
	reg, urls := streamFixture(t, 640, 30)
	var (
		mu      sync.Mutex
		arrived int
		calls   int
	)
	both := make(chan struct{})
	_, err := RunStream(Config{
		Workers: 6,
		Crawler: testCrawler(reg, nil),
		Sink: func(int, *crawler.SessionLog) error {
			mu.Lock()
			calls++
			arrived++
			if arrived == 2 {
				close(both)
			}
			n := arrived
			mu.Unlock()
			if n > 2 {
				return nil
			}
			select {
			case <-both:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("no second delivery started while the first was in flight")
			}
		},
	}, urls)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != len(urls) {
		t.Errorf("sink called %d times, want %d", calls, len(urls))
	}
}

// TestRunStreamConcurrentSinkError: once a sink error is recorded no new
// delivery starts; in-flight ones may finish, so the count stays well below
// the site count.
func TestRunStreamConcurrentSinkError(t *testing.T) {
	reg, urls := streamFixture(t, 680, 16)
	boom := errors.New("disk full")
	var mu sync.Mutex
	calls := 0
	_, err := RunStream(Config{
		Workers: 4,
		Crawler: testCrawler(reg, nil),
		Sink: func(int, *crawler.SessionLog) error {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 3 {
				return boom
			}
			return nil
		},
	}, urls)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Deliveries already started when the error landed may finish;
	// everything after must have been suppressed.
	if calls >= len(urls) {
		t.Errorf("sink called %d times, error did not stop deliveries", calls)
	}
}

func TestRunStreamRequiresSink(t *testing.T) {
	if _, err := RunStream(Config{Crawler: testCrawler(phishserver.NewRegistry(), nil)}, nil); err == nil {
		t.Fatal("RunStream without a sink must error")
	}
}

func TestRunStreamSurfacesFirstSinkError(t *testing.T) {
	reg, urls := streamFixture(t, 340, 12)
	boom := errors.New("disk full")
	var mu sync.Mutex
	calls := 0
	stats, err := RunStream(Config{
		Workers: 4,
		Crawler: testCrawler(reg, nil),
		Sink: func(int, *crawler.SessionLog) error {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 3 {
				return boom
			}
			return nil
		},
	}, urls)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	// The crawl itself still finishes and counts every session, delivered
	// or not.
	if stats.Sites != len(urls) {
		t.Errorf("Sites = %d, want %d", stats.Sites, len(urls))
	}
	counted := 0
	for _, n := range stats.Outcomes {
		counted += n
	}
	if counted != len(urls) {
		t.Errorf("Outcomes count %d sessions, want %d", counted, len(urls))
	}
}

func TestSkipPreservesSeedDerivation(t *testing.T) {
	reg, urls := streamFixture(t, 360, 20)
	full, _ := Run(Config{Workers: 4, Crawler: testCrawler(reg, nil)}, urls)

	// Crawl only the odd indices; their sessions must be byte-for-byte the
	// sessions the full run produced at the same indices (same derived
	// seeds), which is what makes journal resume reproduce a clean run.
	var mu sync.Mutex
	partial := map[int]*crawler.SessionLog{}
	_, err := RunStream(Config{
		Workers: 4,
		Crawler: testCrawler(reg, nil),
		Skip:    func(idx int, _ string) bool { return idx%2 == 0 },
		Sink: func(idx int, lg *crawler.SessionLog) error {
			mu.Lock()
			defer mu.Unlock()
			partial[idx] = lg
			return nil
		},
	}, urls)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(partial) != 10 {
		t.Fatalf("crawled %d sessions, want 10", len(partial))
	}
	for idx, lg := range partial {
		if idx%2 == 0 {
			t.Fatalf("skipped index %d was crawled", idx)
		}
		want := full[idx]
		// Timestamps differ between runs; compare the content that the
		// derived seed controls.
		if lg.SeedURL != want.SeedURL || lg.Outcome != want.Outcome || len(lg.Pages) != len(want.Pages) {
			t.Errorf("index %d: resumed session diverged: %+v vs %+v", idx, lg, want)
		}
		for pi := range lg.Pages {
			if !reflect.DeepEqual(lg.Pages[pi].Fields, want.Pages[pi].Fields) {
				t.Errorf("index %d page %d: filled fields diverged", idx, pi)
			}
		}
	}
}

func TestTallyMatchesRunStats(t *testing.T) {
	reg, urls := streamFixture(t, 380, 25)
	logs, stats := Run(Config{Workers: 5, Crawler: testCrawler(reg, nil)}, urls)
	got := Tally(logs)
	if got.Sites != stats.Sites {
		t.Errorf("Sites = %d, want %d", got.Sites, stats.Sites)
	}
	if !reflect.DeepEqual(got.Outcomes, stats.Outcomes) {
		t.Errorf("Outcomes = %v, want %v", got.Outcomes, stats.Outcomes)
	}
	if !reflect.DeepEqual(got.Failures, stats.Failures) {
		t.Errorf("Failures = %v, want %v", got.Failures, stats.Failures)
	}
	if got.Degraded != stats.Degraded {
		t.Errorf("Degraded = %d, want %d", got.Degraded, stats.Degraded)
	}
	// Stages fold from the journaled traces and must match what the live
	// run derived from the very same finished sessions — the single-source
	// property that keeps resumed stats equal to uninterrupted stats.
	if !reflect.DeepEqual(got.Stages, stats.Stages) {
		t.Errorf("Tally Stages = %+v, want the run's %+v", got.Stages, stats.Stages)
	}
	if got.Retries != stats.Retries {
		t.Errorf("Retries = %d, want %d", got.Retries, stats.Retries)
	}
	// Run-level facts a log cannot carry stay zero.
	if got.Elapsed != 0 || got.Panics != 0 {
		t.Errorf("Tally invented run-level stats: %+v", got)
	}
}

func TestTallyCountsNilAsLost(t *testing.T) {
	logs := []*crawler.SessionLog{
		{Outcome: crawler.OutcomeCompleted, Attempts: 1},
		nil,
		{Outcome: OutcomeGaveUp, Error: "dead", Attempts: 3},
		{Outcome: crawler.OutcomeCompleted, Attempts: 2},
	}
	s := Tally(logs)
	if s.Sites != 4 {
		t.Errorf("Sites = %d", s.Sites)
	}
	if s.Outcomes[OutcomeLost] != 1 {
		t.Errorf("lost = %d, want 1", s.Outcomes[OutcomeLost])
	}
	if s.Retries != 3 { // (1-1) + (3-1) + (2-1)
		t.Errorf("Retries = %d, want 3", s.Retries)
	}
	if s.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", s.Degraded)
	}
	if s.Failures["dead"] != 1 {
		t.Errorf("Failures = %v", s.Failures)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{
		Sites:    10,
		Elapsed:  2 * time.Second,
		Retries:  1,
		Degraded: 1,
		Panics:   0,
		Outcomes: map[string]int{"completed": 9, "gave-up": 1},
		Failures: map[string]int{"dead": 1},
		Stages: []metrics.StageStat{
			{Stage: "render", Count: 20, Total: time.Second},
		},
	}
	b := Stats{
		Sites:    5,
		Elapsed:  time.Second,
		Retries:  2,
		Degraded: 0,
		Panics:   1,
		Outcomes: map[string]int{"completed": 5},
		Stages: []metrics.StageStat{
			{Stage: "render", Count: 10, Total: time.Second},
			{Stage: "ocr", Count: 3, Total: time.Millisecond},
		},
	}
	a.Merge(b)
	if a.Sites != 15 || a.Elapsed != 3*time.Second || a.Retries != 3 || a.Panics != 1 {
		t.Errorf("merged = %+v", a)
	}
	if a.Outcomes["completed"] != 14 || a.Outcomes["gave-up"] != 1 {
		t.Errorf("Outcomes = %v", a.Outcomes)
	}
	var stages []string
	for _, st := range a.Stages {
		stages = append(stages, string(st.Stage))
	}
	sort.Strings(stages)
	if len(a.Stages) != 2 {
		t.Fatalf("Stages = %v", stages)
	}
	for _, st := range a.Stages {
		if st.Stage == "render" && (st.Count != 30 || st.Total != 2*time.Second) {
			t.Errorf("render stage = %+v", st)
		}
	}

	// Merging into a zero value initializes the maps.
	var z Stats
	z.Merge(b)
	if z.Outcomes["completed"] != 5 || z.Sites != 5 {
		t.Errorf("zero-value merge = %+v", z)
	}
}
