// Command phishbench is the repository's end-to-end benchmark. It crawls a
// seeded workload through the production path — core.NewPipeline,
// Pipeline.CrawlJournal into a SyncAlways journal, then journal.Open,
// Sessions and the paper tables — checks the journaled output, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (run.py builds it first):
//
//	python3 _phishbench/run.py --workload hostile-feed --seed 42 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced mode, which times calls into each layer's public
// functions from outside the program and prints the per-layer metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
)

// detectorTrainPages is core.Options' default detector training size.
const detectorTrainPages = 600

// modelSeed trains the model bundle every workload crawls with. The models
// are part of the program under test, not of its input: trained from the
// workload seed, their quality (detector false positives that send the
// submit ladder to visual detection, classifier rejects that strand a
// flow) would shift every round of a run together, a spread that pooling
// corpora cannot narrow.
const modelSeed = 42

type config struct {
	wl      workload
	seed    int64
	seconds float64
	workers int
	// sites overrides the workload's round size (tests use tiny feeds).
	sites int
	// setupReps is how many times set-up is timed after each round, and
	// reportReps how many times the report pass runs on each round's
	// journal; their metrics are medians.
	setupReps, reportReps int
	// workDir holds the round journals and the trace file.
	workDir string
}

func main() {
	name := flag.String("workload", "hostile-feed", "workload: clone-triage or hostile-feed")
	seed := flag.Int64("seed", 42, "workload seed; keep one seed held out to re-check a claim")
	seconds := flag.Float64("seconds", 40, "length of the measured crawl window; sets the number of rounds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	workDir := flag.String("workdir", ".bench_build/work", "directory for journals and the span file")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{
		wl:         wl,
		seed:       *seed,
		seconds:    *seconds,
		workers:    runtime.NumCPU(),
		sites:      wl.sites,
		setupReps:  2,
		reportReps: 3,
		workDir:    filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
	}
	runtime.GOMAXPROCS(cfg.workers)
	fmt.Printf("phishbench: workload %s seed %d, %d workers, %s, journal on %s\n",
		wl.name, cfg.seed, cfg.workers, runtime.Version(), fsKind(*workDir))
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg, os.Stdout)
	} else {
		res, err = runEndToEnd(cfg, os.Stdout)
	}
	if rmErr := os.RemoveAll(cfg.workDir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "phishbench: %v\n", err)
	os.Exit(1)
}

func trainModels() (*core.Models, error) {
	return core.TrainModels(core.ModelParams{Seed: modelSeed, DetectorTrainPages: detectorTrainPages})
}

// timeSetup times one cold core.TrainModels and returns its seconds and
// the trained bundle.
func timeSetup() (float64, *core.Models, error) {
	runtime.GC()
	t0 := time.Now()
	m, err := trainModels()
	return time.Since(t0).Seconds(), m, err
}

// roundSeed derives the corpus seed of round i from the workload seed.
// The seeds are hashed apart: a pipeline derives its faker, chaos and
// retry streams from Seed+6, +7 and +8, which consecutive seeds would
// share.
func roundSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// rounds is how many rounds fill a window of the requested seconds. It
// depends only on the arguments, so every metric that counts rather than
// times is a pure function of the workload, seed and seconds.
func (cfg config) rounds() int {
	n := int(math.Round(cfg.seconds / cfg.wl.roundSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// window is the measured part of an end-to-end run.
type window struct {
	rounds    []*roundResult
	digests   []string
	setups    []float64 // seconds of each timed set-up
	attempted int
	failed    int
	// Pooled over rounds: ground-truth fields wanted and matched, journal
	// bytes, and URLs that gave up, were lost or panicked.
	recallWant, recallGot int
	journalBytes          int64
	notOK                 int
}

// crawlWindow crawls cfg.rounds() rounds, each a fresh corpus, and runs
// the report passes and output checks on each round's journal after its
// window closes. After each round it times cfg.setupReps set-ups, so that
// setup_s samples the host over the whole run, as the crawl figures do,
// rather than over a few seconds at its start.
func crawlWindow(cfg config, models *core.Models, out io.Writer) (*window, error) {
	w := &window{}
	ref, n, err := preflight(cfg, cfg.wl.options(roundSeed(cfg.seed, 0), cfg.workers, cfg.sites, models))
	if err != nil {
		return nil, err
	}
	w.attempted += n
	for i := 0; i < cfg.rounds(); i++ {
		dir, err := journalDir(cfg.workDir, i)
		if err != nil {
			return nil, err
		}
		opts := cfg.wl.options(roundSeed(cfg.seed, i), cfg.workers, cfg.sites, models)
		r, err := crawlRound(opts, dir, nil)
		if err != nil {
			return nil, err
		}
		if err := w.finishRound(cfg, r, out); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if i == 0 {
			if err := samePrefix(ref, r.logs, len(ref), "preflight vs round 0"); err != nil {
				return nil, err
			}
			ref = nil
		}
		// Keep only the numbers: the next round's heap reading must not
		// include this round's corpus.
		r.pipeline, r.logs = nil, nil
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		for k := 0; k < cfg.setupReps; k++ {
			t, _, err := timeSetup()
			if err != nil {
				return nil, err
			}
			w.setups = append(w.setups, t)
		}
	}
	return w, nil
}

func (w *window) finishRound(cfg config, r *roundResult, out io.Writer) error {
	var rb readBack
	for k := 0; k < cfg.reportReps; k++ {
		runtime.GC()
		var err error
		if rb, err = reportPass(r.dir, r.pipeline); err != nil {
			return err
		}
		r.reports = append(r.reports, rb.total().Seconds())
	}
	r.logs = rb.logs
	urls := r.pipeline.Feed.URLs()
	failed, err := checkSessions(r.dir, urls, r.stats)
	w.failed += failed
	if err != nil {
		return err
	}
	digest, err := sessionsDigest(rb.logs)
	if err != nil {
		return err
	}
	jb, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	got, want := fieldRecall(r.pipeline.Feed.Filter(), rb.logs)
	w.recallGot += got
	w.recallWant += want
	w.journalBytes += jb
	w.notOK += notOK(r.stats)
	w.attempted += r.urls
	w.digests = append(w.digests, digest)
	w.rounds = append(w.rounds, r)
	fmt.Fprintf(out, "round %d: %d URLs in %.2fs (%.1f sites/s, %.2f cpu ms/site), sessions_digest %s\n",
		len(w.rounds)-1, r.urls, r.window.wall.Seconds(), float64(r.urls)/r.window.wall.Seconds(),
		r.window.cpu.Seconds()*1e3/float64(r.urls), digest)
	return nil
}

func (w *window) urls() int {
	n := 0
	for _, r := range w.rounds {
		n += r.urls
	}
	return n
}

// metrics are the window's end-to-end metrics.
func (w *window) metrics() map[string]float64 {
	var wall, cpu, report float64
	var heaps []float64
	for _, r := range w.rounds {
		wall += r.window.wall.Seconds()
		cpu += r.window.cpu.Seconds()
		heaps = append(heaps, r.heapMB)
		report += median(r.reports)
	}
	urls := float64(w.urls())
	return map[string]float64{
		"setup_s":                median(w.setups),
		"sites_per_s":            urls / wall,
		"cpu_ms_per_site":        cpu * 1e3 / urls,
		"report_s":               report,
		"setup_heap_mb":          median(heaps),
		"journal_bytes_per_site": float64(w.journalBytes) / urls,
		"ok_frac":                1 - float64(w.notOK)/urls,
		"field_recall":           float64(w.recallGot) / float64(w.recallWant),
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(cfg config, out io.Writer) (result, error) {
	setup, models, err := timeSetup()
	if err != nil {
		return result{}, err
	}
	w, err := crawlWindow(cfg, models, out)
	if err != nil {
		return result{}, err
	}
	w.setups = append(w.setups, setup)
	got := w.metrics()
	writeTable(out, endToEnd, got)
	res, err := newResult(endToEnd, got)
	res.Correct, res.Attempted, res.Failed = err == nil, w.attempted, w.failed
	return res, err
}

// preflight crawls a prefix of round 0's feed twice before the window:
// warmSites URLs with nproc farm workers, which also warms the process's
// pools and heap so round 0 is not slower than later rounds, and then
// checkSites URLs with one worker. The two must agree on the shared
// prefix, and the nproc crawl is the reference that round 0's sessions are
// checked against. It returns the reference logs and the URLs crawled.
func preflight(cfg config, opts core.Options) ([]*crawler.SessionLog, int, error) {
	var (
		ref       []*crawler.SessionLog
		attempted int
		p         *core.Pipeline
	)
	for _, workers := range []int{cfg.workers, 1} {
		n := cfg.wl.warmSites
		if workers == 1 {
			n = cfg.wl.checkSites
		}
		dir, err := journalDir(cfg.workDir, 99)
		if err != nil {
			return nil, 0, err
		}
		if p == nil {
			if p, err = core.NewPipeline(opts); err != nil {
				return nil, 0, err
			}
		}
		// The triage plan is built with nproc probe workers as in the
		// window; only the farm runs serially. The package tests pin whole
		// pipelines across worker counts.
		p.Opts.Workers = workers
		if err := crawlInto(p, dir, n); err != nil {
			return nil, 0, err
		}
		rb, err := reportPass(dir, p)
		if err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		attempted += len(rb.logs)
		// A fault injector keeps per-host state (a flaky host refuses its
		// first connections), so a second crawl needs a fresh pipeline.
		// Without one, the pipeline and its triage plan are reused.
		if p.Injector != nil {
			p = nil
		}
		if ref == nil {
			ref = rb.logs
			continue
		}
		if err := samePrefix(ref, rb.logs, len(rb.logs), fmt.Sprintf("%d workers vs 1 worker", cfg.workers)); err != nil {
			return nil, 0, err
		}
	}
	return ref, attempted, nil
}

// samePrefix requires the sessions_digest of the first n sessions of a and
// b to be equal.
func samePrefix(a, b []*crawler.SessionLog, n int, what string) error {
	if len(a) < n || len(b) < n {
		return fmt.Errorf("sessions_digest %s: %d and %d sessions, want at least %d", what, len(a), len(b), n)
	}
	da, err := sessionsDigest(a[:n])
	if err != nil {
		return err
	}
	db, err := sessionsDigest(b[:n])
	if err != nil {
		return err
	}
	if da != db {
		return fmt.Errorf("sessions_digest of the first %d URLs differs, %s: %s vs %s", n, what, da, db)
	}
	return nil
}
