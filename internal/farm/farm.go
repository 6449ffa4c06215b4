// Package farm runs crawl sessions at scale, modelling the Docker-based
// crawler farm of Section 4.6: a pool of parallel workers, each giving
// every site a fresh browser profile (the paper's clean container per
// session), with aggregate throughput accounting (the paper sustains more
// than 1,000 sites per day on 30 parallel sessions). A worker is a compute
// slot, not a session: a session gives its slot back while it waits on the
// network or the journal, so dead and stalling hosts cost the farm no
// worker time. Because real feeds
// are full of dead, slow, and flaky sites, the farm also carries the
// operational machinery a production crawl needs: a retry queue with
// capped exponential backoff and deterministic jitter for transient
// failures, a per-session panic guard so one bad site cannot kill a
// worker, and a failure taxonomy in its Stats.
package farm

import (
	"fmt"
	"hash/fnv"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/metrics"
)

// DefaultWorkers matches the paper's 30 parallel Docker sessions.
const DefaultWorkers = 30

// inFlightPerWorker bounds the sessions in flight at once to this many
// times Config.Workers. Only Workers of them compute; the rest wait on the
// network, a slot, or the sink. The bound caps the memory a feed of
// stalling hosts can pin.
const inFlightPerWorker = 4

// DefaultMaxRetries is how many extra attempts a transiently-failed
// session gets before the farm gives up.
const DefaultMaxRetries = 2

// Default backoff bounds, tuned to the synthetic corpus's timescale
// (sessions complete in milliseconds; a real deployment would configure
// seconds-to-minutes here).
const (
	defaultRetryBase = 25 * time.Millisecond
	defaultRetryMax  = 400 * time.Millisecond
)

// OutcomeLost is the Stats.Outcomes key counting sessions that produced no
// log at all — a worker never wrote one — so outcome counts always sum to
// Sites and silent losses are visible in the report.
const OutcomeLost = "lost"

// OutcomeGaveUp replaces a transient-failure outcome once retries are
// exhausted; the underlying classification is preserved in
// SessionLog.Error and tallied in Stats.Failures.
const OutcomeGaveUp = "gave-up"

// OutcomePanic classifies a session whose crawl panicked and was recovered
// by the worker guard. Panics are treated as transient (retryable).
const OutcomePanic = "panic"

// Config configures a crawl farm.
type Config struct {
	// Workers is the number of sessions computing at once (default 30).
	// A session waiting on a transport round trip or on the sink holds no
	// worker, and up to 4×Workers sessions are in flight.
	Workers int
	// Crawler is the shared crawler template; its NewBrowser hook supplies
	// the per-session fresh profile.
	Crawler *crawler.Crawler
	// MaxRetries is how many extra attempts a transiently-failed session
	// gets before the farm gives up (0 = DefaultMaxRetries; negative
	// disables retrying).
	MaxRetries int
	// RetryBase is the backoff before the first retry; each further retry
	// doubles it (default 25ms at synthetic timescale).
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 400ms).
	RetryMax time.Duration
	// RetrySeed drives the deterministic backoff jitter, so a run's retry
	// schedule is reproducible from its seeds.
	RetrySeed int64
	// FastPath, when non-nil, is consulted before a browser session is
	// spawned for a URL: a non-nil session log (e.g. the triage plan's
	// "attributed to campaign X" synthesis) is landed directly — no
	// browser, no retries — through the same completion path as a crawled
	// session, so sinks, stats, and the monitor see it uniformly. The hook
	// must return a fresh log per call and be safe for concurrent use.
	FastPath func(idx int, url string) *crawler.SessionLog
	// Skip, when non-nil, reports whether the URL at index idx should be
	// skipped entirely — typically because a resumed run's journal already
	// holds its session. Skipped URLs get no session, no log slot, and no
	// stats contribution, but every crawled URL keeps deriving its
	// per-session seed from its original index, so a resumed crawl
	// reproduces the uninterrupted run's sessions exactly.
	Skip func(idx int, url string) bool
	// Sink receives each finished session as it completes; the index is
	// the session's position in the input URL list. RunStream requires it
	// and Run supplies its own. Deliveries run outside the farm's tally
	// lock and may overlap, so the sink must be safe for concurrent use:
	// the journal sink then encodes in each session's own goroutine, and
	// the journal's commit loop batches overlapping appends into one
	// fsync. After a sink error no new delivery starts, deliveries
	// already in flight run to completion, and RunStream surfaces the
	// first error; the crawl itself keeps going.
	Sink func(idx int, lg *crawler.SessionLog) error
	// Monitor, when non-nil, receives live progress (completions, retries
	// and panics) for the status endpoint and progress line.
	Monitor *Monitor

	// observe, when non-nil, is told of every change to the number of
	// sessions computing and in flight, by the session making it while it
	// holds its slot. Tests pin the farm's concurrency bounds through it.
	observe func(computing, inFlight int)
}

// Stats summarizes a finished run.
type Stats struct {
	Sites    int
	Elapsed  time.Duration
	Outcomes map[string]int
	// FastPathed counts sessions resolved by the FastPath hook (triage
	// attribution or lexical cut) — sessions that cost no browser.
	FastPathed int
	// Retries counts re-queued attempts beyond each session's first.
	Retries int
	// Degraded counts sessions that reached a non-failure outcome only
	// after at least one retry — the crawl completed, but the site made
	// it fight for it.
	Degraded int
	// Panics counts worker panics the guard recovered (including ones
	// whose retry later succeeded).
	Panics int
	// Failures is the failure taxonomy of gave-up sessions: the last
	// classified failure (dead, timeout, server-error, truncated, error,
	// panic) per site that exhausted its retries.
	Failures map[string]int
	// Uncloaked counts sessions whose adaptive uncloaking loop got past a
	// cloaking gate (the honest crawl saw a benign decoy, a mutated
	// profile reached the phishing flow). CloakAttempts counts the extra
	// crawl attempts the loop spent across all sessions. Both omit from
	// JSON when zero, so a crawl without cloaking encodes no cloak counts.
	Uncloaked     int `json:",omitempty"`
	CloakAttempts int `json:",omitempty"`
}

// SitesPerDay extrapolates throughput.
func (s Stats) SitesPerDay() float64 {
	perDay, _ := Throughput(s.Sites, 0, s.Elapsed)
	return perDay
}

// Throughput extrapolates a crawl's rate from the sessions it crawled in
// elapsed wall time: sites per day, and how long the remaining sessions
// take at that rate. Both read 0 until a session is crawled and time has
// passed; the ETA also reads 0 when nothing remains.
func Throughput(crawled, remaining int, elapsed time.Duration) (sitesPerDay float64, eta time.Duration) {
	if crawled <= 0 || elapsed <= 0 {
		return 0, 0
	}
	if remaining > 0 {
		eta = elapsed / time.Duration(crawled) * time.Duration(remaining)
	}
	return float64(crawled) / elapsed.Seconds() * 86400, eta
}

// tally is the one rule for how a finished session counts into Stats. The
// live run adds each session as it lands, Tally replays journaled logs
// through it, and the Monitor keeps one for the status endpoint. Only
// final attempts are added, so live, streamed and journal-resumed runs
// all derive the same counts at any worker count. The zero value is ready
// to use; callers lock.
type tally struct {
	sites, fastPathed, retries, degraded, uncloaked, cloakAttempts int
	outcomes, failures                                             map[string]int
}

// add counts one finished session; a nil log counts as lost.
func (t *tally) add(lg *crawler.SessionLog) {
	if t.outcomes == nil {
		t.outcomes, t.failures = map[string]int{}, map[string]int{}
	}
	t.sites++
	if lg == nil {
		t.outcomes[OutcomeLost]++
		return
	}
	t.outcomes[lg.Outcome]++
	t.retries += lg.Attempts - 1
	if lg.Cloak != nil {
		t.cloakAttempts += len(lg.Cloak.Attempts) - 1
		if lg.Cloak.Uncloaked {
			t.uncloaked++
		}
	}
	switch lg.Outcome {
	case OutcomeGaveUp:
		t.failures[lg.Error]++
	case crawler.OutcomeAttributed, crawler.OutcomeTriagedOut:
		t.fastPathed++
	default:
		if lg.Attempts > 1 {
			t.degraded++
		}
	}
}

// stats snapshots the tally. Elapsed and Panics are run-level facts a log
// cannot carry, so the caller supplies them.
func (t *tally) stats(elapsed time.Duration, panics int) Stats {
	s := Stats{
		Sites:         t.sites,
		Elapsed:       elapsed,
		Outcomes:      map[string]int{},
		FastPathed:    t.fastPathed,
		Retries:       t.retries,
		Degraded:      t.degraded,
		Panics:        panics,
		Failures:      map[string]int{},
		Uncloaked:     t.uncloaked,
		CloakAttempts: t.cloakAttempts,
	}
	maps.Copy(s.Outcomes, t.outcomes)
	maps.Copy(s.Failures, t.failures)
	return s
}

// Tally recomputes the session-derived part of Stats from final logs, by
// the same rule a live run counts them with: Sites, Outcomes, Failures,
// Degraded, FastPathed, the cloak counts, Retries (each session's final
// Attempts-1 re-queues). A resumed crawl's tallied Stats
// therefore match an uninterrupted run's byte for byte even when an
// earlier run was killed mid-crawl. Elapsed and Panics stay zero. A nil
// entry counts as lost.
func Tally(logs []*crawler.SessionLog) Stats {
	var t tally
	for _, l := range logs {
		t.add(l)
	}
	return t.stats(0, 0)
}

// job is one queued crawl attempt.
type job struct {
	idx     int
	attempt int // 0 = first try
}

// Run crawls like RunStream and returns the session logs in input order
// (nil at skipped indices) plus run statistics. It supplies its own sink,
// which keeps every log; Config.Sink is ignored.
func Run(cfg Config, urls []string) ([]*crawler.SessionLog, Stats) {
	logs := make([]*crawler.SessionLog, len(urls))
	cfg.Sink = func(idx int, lg *crawler.SessionLog) error {
		logs[idx] = lg
		return nil
	}
	stats, _ := RunStream(cfg, urls)
	return logs, stats
}

// RunStream crawls every URL with the configured parallelism and hands
// each finished session to Config.Sink, which it requires, as it
// completes. The farm keeps no log, so a 43-day crawl holds O(workers)
// sessions in memory instead of O(feed). Sessions that fail with a
// transient (retryable) outcome are re-queued with capped exponential
// backoff up to MaxRetries times; a session that panics is recovered,
// classified, and retried like any other transient failure, so one bad
// site never costs a worker or loses the run. The returned error is the
// first sink failure (the crawl itself finishes regardless, and Stats
// still counts every session).
func RunStream(cfg Config, urls []string) (Stats, error) {
	if cfg.Sink == nil {
		return Stats{}, fmt.Errorf("farm: RunStream requires a Config.Sink")
	}
	// Apply the skip filter first: include holds the original feed indices
	// that will actually be crawled, so seed derivation below is untouched
	// by resume.
	include := make([]int, 0, len(urls))
	for i, u := range urls {
		if cfg.Skip == nil || !cfg.Skip(i, u) {
			include = append(include, i)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	inFlight := min(inFlightPerWorker*workers, len(include))
	maxRetries, retryBase, retryMax := ResolveRetries(cfg.MaxRetries, cfg.RetryBase, cfg.RetryMax)
	maxRetries = max(maxRetries, 0)

	// Throughput accounting is operational, not measured output; it goes
	// through the metrics stopwatch so the farm itself never reads the
	// wall clock (phishvet's wallclock rule pins this).
	start := metrics.NewStopwatch()
	var (
		wg      sync.WaitGroup
		pending sync.WaitGroup // open jobs: one per URL until its final attempt lands
		panics  int64
	)
	// landed is the run's tally and first sink error. Stats come only from
	// FINISHED sessions, never from live per-attempt worker timings: a
	// killed run's journaled sessions survive it, so counting sessions is
	// what keeps a resumed run's Stats identical to an uninterrupted run's.
	var landed struct {
		sync.Mutex
		tally
		sinkErr error
	}
	// finish counts a session under the lock and delivers it outside, so
	// one session's encode and fsync never stall every other session's
	// completion path.
	finish := func(lg *crawler.SessionLog) {
		landed.Lock()
		landed.add(lg)
		deliver := landed.sinkErr == nil
		landed.Unlock()
		cfg.Monitor.noteDone(lg)
		if !deliver {
			return
		}
		if err := cfg.Sink(lg.FeedIndex, lg); err != nil {
			landed.Lock()
			if landed.sinkErr == nil {
				landed.sinkErr = err
			}
			landed.Unlock()
		}
	}
	// Buffered to the full job count so neither the producer nor a retry
	// timer ever blocks: each URL has at most one outstanding job at any
	// moment, so capacity len(include) suffices.
	jobs := make(chan job, len(include))
	// attempt runs one queued attempt and returns its final log, or nil
	// when the attempt failed transiently and was re-queued.
	attempt := func(c *crawler.Crawler, jb job) *crawler.SessionLog {
		// Pre-session fast path: a triage-attributed (or cut) URL lands its
		// synthesized log through the normal completion path without ever
		// opening a browser. Fast-path outcomes are never retryable, so
		// this only triggers on attempt 0.
		if cfg.FastPath != nil && jb.attempt == 0 {
			if lg := cfg.FastPath(jb.idx, urls[jb.idx]); lg != nil {
				lg.Attempts = 1
				lg.FeedIndex = jb.idx
				return lg
			}
		}
		// The faker seed derives from the job index (not the worker or the
		// attempt), which keeps runs reproducible across worker counts and
		// makes retries exact re-executions.
		c.FakerSeed = cfg.Crawler.FakerSeed + int64(jb.idx)*7919
		lg := crawlGuarded(c, urls[jb.idx], &panics, cfg.Monitor)
		if retryable(lg.Outcome) {
			if jb.attempt < maxRetries {
				cfg.Monitor.noteRetry()
				next := job{idx: jb.idx, attempt: jb.attempt + 1}
				time.AfterFunc(
					backoffDelay(retryBase, retryMax, next.attempt, cfg.RetrySeed, next.idx),
					func() { jobs <- next })
				return nil
			}
			// Retries exhausted: keep the taxonomy class in Error.
			lg.Error = lg.Outcome
			lg.Outcome = OutcomeGaveUp
		}
		lg.Attempts = jb.attempt + 1
		lg.FeedIndex = jb.idx
		return lg
	}
	sl := slots{free: make(chan struct{}, workers), observe: cfg.observe}
	pending.Add(len(include))
	for range inFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each session runner gets its own crawler so faker sequences
			// differ across sessions without shared state; its wait hook
			// gives the slot back for every round trip.
			c := *cfg.Crawler
			c.WaitHook = sl.wait
			for jb := range jobs {
				sl.note(0, 1)
				sl.take()
				lg := attempt(&c, jb)
				// The slot goes back before the sink, so a journal fsync
				// never holds one.
				sl.give()
				if lg != nil {
					finish(lg)
					pending.Done()
				}
				sl.note(0, -1)
			}
		}()
	}
	for _, i := range include {
		jobs <- job{idx: i}
	}
	go func() {
		// Close only once every URL has a final log; retry timers always
		// fire before that, so no send can race the close.
		pending.Wait()
		close(jobs)
	}()
	wg.Wait()

	// The runners exit only once every included URL has landed, so the
	// tally has counted each of them.
	return landed.stats(start.Elapsed(), int(atomic.LoadInt64(&panics))), landed.sinkErr
}

// retryable extends the crawler's transient-failure set with the farm's
// own panic classification.
func retryable(outcome string) bool {
	return crawler.Retryable(outcome) || outcome == OutcomePanic
}

// slots is the farm's compute semaphore: Config.Workers slots, one held
// by each session while it computes.
type slots struct {
	free    chan struct{}
	observe func(computing, inFlight int)
}

func (s slots) take() {
	s.free <- struct{}{}
	s.note(1, 0)
}

func (s slots) give() {
	s.note(-1, 0)
	<-s.free
}

// wait is the per-session wait hook (crawler.Crawler.WaitHook): the slot
// goes back for the round trip and is taken again when it returns. The
// browser defers the resume, so a round trip that panics still takes its
// slot back before crawlGuarded recovers.
func (s slots) wait() (resume func()) {
	s.give()
	return s.take
}

func (s slots) note(computing, inFlight int) {
	if s.observe != nil {
		s.observe(computing, inFlight)
	}
}

// ResolveRetries applies the retry queue's defaults: maxRetries 0 becomes
// DefaultMaxRetries and a negative one (retrying disabled) -1; a
// non-positive base becomes 25ms; a cap below the base becomes 400ms, and
// then at least the base. Resolving a resolved policy changes nothing, so
// the run manifest records the policy the farm actually runs.
func ResolveRetries(maxRetries int, base, max time.Duration) (int, time.Duration, time.Duration) {
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = -1
	}
	if base <= 0 {
		base = defaultRetryBase
	}
	if max < base {
		max = defaultRetryMax
	}
	if max < base {
		max = base
	}
	return maxRetries, base, max
}

// crawlGuarded runs one session under the per-worker panic guard: a panic
// anywhere in the crawl (browser, renderer, models) is recovered into a
// classified, retryable session log instead of killing the worker.
func crawlGuarded(c *crawler.Crawler, url string, panics *int64, mon *Monitor) (lg *crawler.SessionLog) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(panics, 1)
			mon.notePanic()
			lg = &crawler.SessionLog{
				SeedURL: url,
				Outcome: OutcomePanic,
				Error:   fmt.Sprintf("recovered panic: %v", r),
			}
		}
	}()
	lg = c.Crawl(url)
	if lg == nil {
		lg = &crawler.SessionLog{SeedURL: url, Outcome: OutcomeLost}
	}
	return lg
}

// backoffDelay computes the capped exponential backoff before attempt
// (1-based), jittered deterministically into [d/2, d] by hashing
// (seed, idx, attempt) — the full-jitter scheme real crawl farms use to
// de-synchronize retry bursts, made reproducible for the determinism
// tests.
func backoffDelay(base, max time.Duration, attempt int, seed int64, idx int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", seed, idx, attempt)
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return d/2 + time.Duration(h.Sum64()%(half+1))
}
