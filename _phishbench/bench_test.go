package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/feed"
	"repro/internal/fieldspec"
	"repro/internal/journal"
	"repro/internal/phishserver"
	"repro/internal/site"
)

// tinyConfig is a workload at test size: a 40-URL feed and one repetition
// of each short pass. seconds picks the number of rounds.
func tinyConfig(t *testing.T, name string, workers int, seconds float64) config {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	wl.warmSites, wl.checkSites = 20, 10
	return config{
		wl: wl, seed: 7, seconds: seconds, workers: workers, sites: 40,
		setupReps: 1, reportReps: 1, workDir: t.TempDir(),
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesDeclarations keeps BENCHMARK.json and the
// metrics this program declares in step.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// checkEmitted requires res to carry exactly the declared metrics, each
// with its declared unit.
func checkEmitted(t *testing.T, res result, decls []metricDecl) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("metric %s: emitted %+v (present %v), want unit %s", d.name, v, ok, d.unit)
		}
	}
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, w.name, 2, 1)
			res, err := runEndToEnd(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEnd)
			res, err = runTraced(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, perLayer)
		})
	}
}

// TestFieldRecallFixture checks field_recall on two hand-built sites of
// one campaign: a full session and an attributed clone that inherits its
// founder's logged fields.
func TestFieldRecallFixture(t *testing.T) {
	typ := func(ts ...fieldspec.Type) []fieldspec.Type { return ts }
	founderSite := &site.Site{Truth: site.Truth{FieldsPerPage: [][]fieldspec.Type{
		typ(fieldspec.Email, fieldspec.Password),
		typ(fieldspec.Card),
	}}}
	cloneSite := &site.Site{Truth: site.Truth{FieldsPerPage: [][]fieldspec.Type{
		typ(fieldspec.Email, fieldspec.Email),
	}}}
	entries := []feed.Entry{
		{URL: "http://founder.test/", Site: founderSite},
		{URL: "http://clone.test/", Site: cloneSite},
		{URL: "http://noise.test/", Noise: true},
	}
	page := func(ts ...fieldspec.Type) crawler.PageLog {
		var pl crawler.PageLog
		for _, ty := range ts {
			pl.Fields = append(pl.Fields, crawler.FieldLog{Label: ty})
		}
		return pl
	}
	founder := &crawler.SessionLog{
		SeedURL: "http://founder.test/", Outcome: crawler.OutcomeCompleted, TriageCampaign: "tc-00000",
		// The email is found, the password is logged as unknown, the card
		// is found on the second page.
		Pages: []crawler.PageLog{page(fieldspec.Email, fieldspec.Unknown), page(fieldspec.Card)},
	}
	clone := &crawler.SessionLog{
		SeedURL: "http://clone.test/", Outcome: crawler.OutcomeAttributed, TriageCampaign: "tc-00000",
		Pages: []crawler.PageLog{{}},
	}
	// Founder: 2 of 3 fields. Clone: its two emails against the founder's
	// one logged email, 1 of 2.
	if got, want := fieldRecall(entries, []*crawler.SessionLog{founder, clone}); got != 3 || want != 5 {
		t.Errorf("fieldRecall = %d of %d fields, want 3 of 5", got, want)
	}
	// Without the founder in the journal the clone has nothing to inherit.
	if got, want := fieldRecall(entries, []*crawler.SessionLog{clone}); got != 0 || want != 5 {
		t.Errorf("fieldRecall without founder = %d of %d fields, want 0 of 5", got, want)
	}
}

// TestCheckSessionsCountsRecords journals a URL twice, which
// journal.Sessions would fold into one session: the check must read every
// record and refuse the journal, and it must refuse a farm tally the
// records do not match.
func TestCheckSessionsCountsRecords(t *testing.T) {
	urls := []string{"http://a.test/", "http://b.test/"}
	write := func(seeds ...string) string {
		dir := t.TempDir()
		j, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range seeds {
			if err := j.AppendSession(&crawler.SessionLog{SeedURL: u, Outcome: crawler.OutcomeCompleted}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	stats := func(n int) farm.Stats { return farm.Stats{Outcomes: map[string]int{crawler.OutcomeCompleted: n}} }
	if _, err := checkSessions(write(urls...), urls, stats(2)); err != nil {
		t.Errorf("one record per URL: %v", err)
	}
	if _, err := checkSessions(write(urls[0], urls[1], urls[0]), urls, stats(3)); err == nil || !strings.Contains(err.Error(), "2 sessions for "+urls[0]) {
		t.Errorf("a URL journaled twice: err = %v", err)
	}
	if _, err := checkSessions(write(urls...), urls, stats(3)); err == nil || !strings.Contains(err.Error(), "farm outcomes") {
		t.Errorf("a tally the records do not match: err = %v", err)
	}
	if failed, err := checkSessions(write(urls[0]), urls, stats(1)); err == nil || failed != 1 {
		t.Errorf("a URL without a session: failed = %d, err = %v", failed, err)
	}
}

// TestDeterministicAcrossRunsAndWorkers runs each workload's window (two
// rounds) twice with nproc workers and once with one worker: the session
// digests and the counted metrics must be identical.
func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls every workload three times")
	}
	nproc := runtime.NumCPU()
	if nproc < 2 {
		nproc = 2
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests [][]string
			var counted []map[string]float64
			for _, workers := range []int{nproc, nproc, 1} {
				cfg := tinyConfig(t, w.name, workers, 2*w.roundSeconds)
				models, err := trainModels()
				if err != nil {
					t.Fatal(err)
				}
				win, err := crawlWindow(cfg, models, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if len(win.digests) != 2 || win.digests[0] == win.digests[1] {
					t.Fatalf("rounds should crawl distinct corpora: digests %v", win.digests)
				}
				m := win.metrics()
				digests = append(digests, win.digests)
				counted = append(counted, map[string]float64{"ok_frac": m["ok_frac"], "field_recall": m["field_recall"]})
			}
			for i := 1; i < len(digests); i++ {
				if !reflect.DeepEqual(digests[i], digests[0]) {
					t.Errorf("run %d sessions_digest %v, run 0 %v", i, digests[i], digests[0])
				}
				if !reflect.DeepEqual(counted[i], counted[0]) {
					t.Errorf("run %d counted metrics %v, run 0 %v", i, counted[i], counted[0])
				}
			}
		})
	}
}

// TestCaptureKeepsResponsesValid drives the capturing transport from
// several goroutines at once, as triage.BuildPlan's probe workers do, and
// reads each response after RoundTrip returns: a served response must stay
// valid, headers included, until its body is closed.
func TestCaptureKeepsResponsesValid(t *testing.T) {
	corpus, f := core.NewFeed(core.Options{NumSites: 30, Seed: 3})
	reg := phishserver.NewRegistry()
	for _, s := range corpus.Sites {
		reg.AddSite(s)
	}
	tt := &timedTransport{
		inner: phishserver.Transport{Registry: reg}, name: "phishserver.serve",
		tr: newTracer(), parent: fixed(-1), session: hostOf, capture: newCapture(),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range f.URLs() {
				req, err := http.NewRequest(http.MethodGet, u, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := tt.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				ct := resp.Header.Get("Content-Type")
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close() // read-only
				if err != nil || !strings.HasPrefix(ct, "text/html") || !strings.Contains(string(body), "<") {
					t.Errorf("%s: content type %q, %d body bytes, err %v", u, ct, len(body), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
