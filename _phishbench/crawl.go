package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/feed"
	"repro/internal/fieldspec"
	"repro/internal/journal"
	"repro/internal/report"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the runtime's allocation and GC CPU counters.
type runtimeCounters struct {
	allocBytes, mallocs, gcCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{val(0), val(1), val(2)}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes + o.allocBytes, c.mallocs + o.mallocs, c.gcCPU + o.gcCPU}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.mallocs - o.mallocs, c.gcCPU - o.gcCPU}
}

// span times one stretch of work in wall and CPU time and counts what the
// runtime allocated and spent on GC over the same stretch.
type span struct {
	wall, cpu time.Duration
	rt        runtimeCounters
}

func measure(fn func() error) (span, error) {
	rc0, c0, t0 := readRuntime(), cpuTime(), time.Now()
	err := fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	return span{wall: wall, cpu: cpu, rt: readRuntime().sub(rc0)}, err
}

func (s span) add(o span) span { return span{s.wall + o.wall, s.cpu + o.cpu, s.rt.add(o.rt)} }

// roundResult is one crawl of a workload's feed, from pipeline build to a
// closed journal.
type roundResult struct {
	urls     int
	logs     []*crawler.SessionLog // read back after the window
	reports  []float64             // seconds of each report pass
	window   span                  // NewPipeline + journal Open + CrawlJournal + Close
	heapMB   float64
	stats    farm.Stats
	dir      string
	pipeline *core.Pipeline
}

// crawlRound builds a pipeline from opts and crawls its whole filtered feed
// into a fresh journal under dir with the production default SyncAlways.
// The live-heap reading between the two timed parts is not in the window.
func crawlRound(opts core.Options, dir string, hook func(*core.Pipeline)) (*roundResult, error) {
	runtime.GC()
	r := &roundResult{dir: dir}
	build, err := measure(func() (err error) {
		r.pipeline, err = core.NewPipeline(opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("NewPipeline: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if hook != nil {
		hook(r.pipeline)
	}
	r.urls = len(r.pipeline.Feed.URLs())
	crawl, err := measure(func() error { return crawlInto(r.pipeline, dir, 0) })
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	r.window = build.add(crawl)
	r.stats = r.pipeline.Stats
	return r, nil
}

// crawlInto crawls the first sample feed URLs of p (0 = all) into a new
// journal in dir and closes it.
func crawlInto(p *core.Pipeline, dir string, sample int) error {
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	if _, err := p.CrawlJournal(j, sample); err != nil {
		_ = j.Close() // the crawl error is the one worth reporting
		return err
	}
	return j.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// readBack is one report pass over a finished journal: open it, read the
// final sessions, and build the paper tables.
type readBack struct {
	open, sessions, tables time.Duration
	logs                   []*crawler.SessionLog
}

func (rb readBack) total() time.Duration { return rb.open + rb.sessions + rb.tables }

func reportPass(dir string, p *core.Pipeline) (readBack, error) {
	var rb readBack
	t0 := time.Now()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return rb, fmt.Errorf("journal.Open: %w", err)
	}
	defer j.Close()
	t1 := time.Now()
	rb.logs, err = j.Sessions()
	if err != nil {
		return rb, fmt.Errorf("journal.Sessions: %w", err)
	}
	t2 := time.Now()
	paperTables(p, rb.logs)
	t3 := time.Now()
	rb.open, rb.sessions, rb.tables = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return rb, nil
}

// paperTables renders the crawl-derived tables and figures the way
// cmd/phishreport prints them.
func paperTables(p *core.Pipeline, logs []*crawler.SessionLog) string {
	n := len(p.Feed.URLs())
	tc := analysis.Termination(logs, p.TermClassifier)
	parts := []string{
		report.Table1(analysis.Summarize(p.Feed, logs), n),
		report.Table2(analysis.CategoryCounts(logs), n),
		report.Table3(analysis.Cloning(logs, p.Gallery, brands.Table3Brands(), 50)),
		report.Table4(tc, n),
		report.Table7(analysis.BrandCounts(logs), n),
		report.Figure7(analysis.FieldsAcrossPages(logs), n),
		report.Figure8(analysis.PageCountHistogram(logs), n),
		report.Figure9(analysis.FieldsPerStage(logs)),
		report.SectionRates(
			analysis.Obfuscation(logs),
			analysis.Keylogging(logs),
			analysis.DoubleLoginCount(logs),
			analysis.ClickThrough(logs),
			analysis.Captchas(logs, p.CaptchaAnalysisOptions()),
			analysis.TwoFactor(logs),
			tc, n),
		fmt.Sprintf("campaign clusters: %d\n", analysis.ClusterCampaigns(logs)),
		report.TriageTable(logs),
	}
	return strings.Join(parts, "\n")
}

// sessionsDigest hashes the read-back session records in FeedIndex order
// (the order journal.Sessions returns). Sessions derive their seeds from
// feed indices, so the digest is a pure function of the workload and seed:
// a difference across rounds or worker counts is a bug, never noise.
func sessionsDigest(logs []*crawler.SessionLog) (string, error) {
	h := sha256.New()
	for _, lg := range logs {
		b, err := json.Marshal(lg)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkSessions verifies one round's journal in dir record by record,
// since journal.Sessions keeps only the latest session per URL: every
// filtered-feed URL has exactly one session record, and the tally of the
// journaled outcomes equals the farm's. It returns the number of URLs
// whose crawl failed (no session, lost, or panicked).
func checkSessions(dir string, urls []string, st farm.Stats) (failed int, err error) {
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, fmt.Errorf("journal.Open: %w", err)
	}
	defer j.Close()
	seen := make(map[string]int, len(urls))
	tally := map[string]int{}
	err = j.Scan(func(r journal.Record) error {
		if r.Kind != journal.KindSession {
			return nil
		}
		var rec struct{ SeedURL, Outcome string }
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			return fmt.Errorf("session record %d: %w", r.Seq, err)
		}
		seen[rec.SeedURL]++
		tally[rec.Outcome]++
		return nil
	})
	if err != nil {
		return 0, err
	}
	var problems []string
	for _, u := range urls {
		switch n := seen[u]; {
		case n == 0:
			failed++
			problems = append(problems, "no session for "+u)
		case n > 1:
			problems = append(problems, fmt.Sprintf("%d sessions for %s", n, u))
		}
		delete(seen, u)
	}
	for u := range seen {
		problems = append(problems, "session for URL outside the feed: "+u)
	}
	failed += st.Outcomes[farm.OutcomeLost] + st.Outcomes[farm.OutcomePanic]
	if !maps.Equal(tally, st.Outcomes) {
		problems = append(problems, fmt.Sprintf("journaled outcomes %v != farm outcomes %v", tally, st.Outcomes))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		if len(problems) > 5 {
			problems = append(problems[:5], fmt.Sprintf("... %d more", len(problems)-5))
		}
		return failed, fmt.Errorf("session check: %s", strings.Join(problems, "; "))
	}
	return failed, nil
}

// notOK counts the URLs that gave up, were lost or panicked; ok_frac is
// one minus their share of the URLs attempted.
func notOK(st farm.Stats) int {
	return st.Outcomes[farm.OutcomeGaveUp] + st.Outcomes[farm.OutcomeLost] + st.Outcomes[farm.OutcomePanic]
}

// fieldRecall counts ground-truth fields matched and wanted; field_recall
// is the share of ground-truth fields (site.Truth.FieldsPerPage)
// whose type the crawl logged on the matching page. Matching is by page
// position and counts each type as a multiset. An attributed session never
// ran a browser; it is credited with its campaign founder's logged fields,
// which is what the triage funnel asserts it would have measured.
func fieldRecall(entries []feed.Entry, logs []*crawler.SessionLog) (got, want int) {
	founder := map[string]*crawler.SessionLog{}
	for _, lg := range logs {
		if lg.TriageCampaign != "" && lg.Outcome != crawler.OutcomeAttributed && founder[lg.TriageCampaign] == nil {
			founder[lg.TriageCampaign] = lg
		}
	}
	byURL := map[string]*crawler.SessionLog{}
	for _, lg := range logs {
		byURL[lg.SeedURL] = lg
	}
	for _, e := range entries {
		if e.Site == nil {
			continue
		}
		truth := e.Site.Truth.FieldsPerPage
		for _, fs := range truth {
			want += len(fs)
		}
		lg := byURL[e.URL]
		if lg != nil && lg.Outcome == crawler.OutcomeAttributed {
			lg = founder[lg.TriageCampaign]
		}
		if lg == nil {
			continue
		}
		got += matchedFields(truth, lg.Pages)
	}
	return got, want
}

func matchedFields(truth [][]fieldspec.Type, pages []crawler.PageLog) int {
	n := 0
	for i, fs := range truth {
		if i >= len(pages) {
			break
		}
		logged := map[fieldspec.Type]int{}
		for _, f := range pages[i].Fields {
			logged[f.Label]++
		}
		for _, t := range fs {
			if logged[t] > 0 {
				logged[t]--
				n++
			}
		}
	}
	return n
}

// journalDir returns a fresh, empty directory for one round's journal.
func journalDir(base string, round int) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("journal-%02d", round))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// fsKind names the filesystem holding dir (its nearest existing
// ancestor): journals fsync, so tmpfs and disk give different figures.
func fsKind(dir string) string {
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			if st.Type == 0x01021994 { // TMPFS_MAGIC
				return "tmpfs"
			}
			return fmt.Sprintf("disk (statfs type 0x%x)", st.Type)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
