// Command phishcrawl runs the full measurement pipeline: generate the
// corpus, serve it, train the crawler's models, and crawl every site with
// the farm, printing per-outcome statistics, the failure taxonomy,
// per-stage timings, and throughput. The -chaos flags inject a
// deterministic mix of dead/slow/flaky/5xx/truncated/takedown sites into
// the feed (see docs/OPERATIONS.md); the -cpuprofile/-memprofile flags
// capture pprof profiles of the run for performance work. The -journal
// flags make the crawl itself crash-safe: every finished session streams
// into a durable segment store, and -resume continues an interrupted run,
// re-crawling only the URLs it never completed. -status-addr serves live
// run progress (counts, throughput, ETA) over HTTP, and
// -progress prints a periodic one-line summary to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/sessionio"
	"repro/internal/triage"
)

func main() {
	numSites := flag.Int("sites", 1000, "corpus size")
	seed := flag.Int64("seed", 42, "seed")
	workers := flag.Int("workers", 30, "sessions computing at once; a session waiting on the network or the journal holds none, and a new one starts whenever a worker would go idle, up to 64 in flight per worker that can compute at once (min(workers, GOMAXPROCS)) (paper: 30 parallel sessions)")
	sample := flag.Int("sample", 0, "crawl only the first N sites (0 = all)")
	out := flag.String("o", "", "write session logs as JSON Lines to this file")
	detectorTrain := flag.Int("detector-train", 0, "object-detector training pages (0 = pipeline default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the crawl to this file")
	journalDir := flag.String("journal", "", "stream finished sessions into a crash-safe journal at this directory")
	resume := flag.Bool("resume", false, "resume the journal at -journal: skip already-completed URLs")
	journalSync := flag.String("journal-sync", "always", "journal fsync policy: always (every acknowledged append durable; concurrent appends share an fsync) | none")

	def := chaos.DefaultProfile()
	chaosOn := flag.Bool("chaos", false, "inject operational faults into the feed (dead/stalling/slow/5xx/truncated/takedown/flaky sites)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-assignment seed (0 = derive from -seed)")
	deadRate := flag.Float64("chaos-dead", def.DeadRate, "fraction of sites refusing connections")
	stallRate := flag.Float64("chaos-stall", def.StallRate, "fraction of sites stalling past the fetch deadline")
	slowRate := flag.Float64("chaos-slow", def.SlowRate, "fraction of sites answering slowly but within deadline")
	serrRate := flag.Float64("chaos-5xx", def.ServerErrorRate, "fraction of sites answering every request with a 503")
	truncRate := flag.Float64("chaos-truncate", def.TruncateRate, "fraction of sites truncating response bodies")
	takedownRate := flag.Float64("chaos-takedown", def.TakedownRate, "fraction of sites replaced by a takedown page")
	flakyRate := flag.Float64("chaos-flaky", def.FlakyRate, "fraction of sites resetting their first connections")
	retries := flag.Int("retries", 0, "extra attempts per transiently-failed session (0 = default 2)")
	retryBase := flag.Duration("retry-base", 0, "backoff before the first retry (0 = farm default)")
	retryMax := flag.Duration("retry-max", 0, "cap on the exponential backoff (0 = farm default)")
	sessionBudget := flag.Duration("session-budget", 0, "per-session wall-clock budget (0 = crawler default, the paper's 20-minute timeout scaled)")
	fetchTimeout := flag.Duration("fetch-timeout", 0, "per-fetch deadline (0 = browser default)")
	statusAddr := flag.String("status-addr", "", "serve live run progress over HTTP at this address (e.g. 127.0.0.1:8844; /status, ?format=json; fleet-wide view in coordinator mode)")
	progressEvery := flag.Duration("progress", 0, "print a one-line progress summary to stderr at this interval (0 = off)")
	coordinator := flag.Bool("coordinator", false, "fleet mode: shard the feed into leases for -worker processes and merge their results (requires -fleet-addr and -journal)")
	workerMode := flag.Bool("worker", false, "fleet mode: crawl leases from the coordinator at -fleet-addr, journaling each shard under -journal")
	fleetAddr := flag.String("fleet-addr", "", "coordinator listen address (with -coordinator) or coordinator address to join (with -worker), e.g. 127.0.0.1:8870")
	leaseSites := flag.Int("lease-sites", 0, "feed URLs per fleet lease (0 = default 100)")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet lease heartbeat expiry: a worker silent this long forfeits its lease for re-issue (0 = default 10s)")
	workerName := flag.String("worker-name", "", "fleet worker identity in leases and status (default worker-<pid>)")
	triageOn := flag.Bool("triage", false, "enable the pre-session triage funnel: lexical URL scoring plus campaign near-duplicate attribution; clone URLs take a fast-path session instead of a full crawl")
	campaignThreshold := flag.Float64("campaign-threshold", triage.DefaultCampaignThreshold, "triage attribution similarity cut in [0,1]: probes at least this similar to an indexed campaign fast-path")
	triageTopK := flag.Int("triage-topk", 0, "keep only the K lexically highest-scored feed URLs; the rest are cut before any fetch (0 = no cut)")
	campaignMin := flag.Int("campaign-min", 0, "clamp generated campaign sizes from below — the clone-heavy-feed knob for triage experiments (0 = paper distribution)")
	cloakRate := flag.Float64("cloak-rate", 0, "fraction of generated campaigns that cloak behind request-fingerprint gates, serving a benign decoy otherwise (0 = no cloaking)")
	cloakRetries := flag.Int("cloak-retries", 0, "adaptive uncloaking budget: re-crawls with a mutated profile after a session lands on a benign decoy (0 = honest single crawl)")
	flag.Parse()

	if err := validateFlags(cliFlags{
		sites:             *numSites,
		sample:            *sample,
		workers:           *workers,
		retries:           *retries,
		sessionBudget:     *sessionBudget,
		fetchTimeout:      *fetchTimeout,
		progress:          *progressEvery,
		journalDir:        *journalDir,
		journalSync:       *journalSync,
		resume:            *resume,
		statusAddr:        *statusAddr,
		out:               *out,
		coordinator:       *coordinator,
		worker:            *workerMode,
		fleetAddr:         *fleetAddr,
		leaseSites:        *leaseSites,
		leaseTTL:          *leaseTTL,
		triage:            *triageOn,
		campaignThreshold: *campaignThreshold,
		triageTopK:        *triageTopK,
		campaignMin:       *campaignMin,
		cloakRate:         *cloakRate,
		cloakRetries:      *cloakRetries,
	}); err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		//phishvet:ignore atomicwrite: pprof needs an open stream; a torn profile from a crash is discarded, not analyzed
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := core.Options{
		NumSites:           *numSites,
		Seed:               *seed,
		Workers:            *workers,
		DetectorTrainPages: *detectorTrain,
		ChaosSeed:          *chaosSeed,
		SessionBudget:      *sessionBudget,
		FetchTimeout:       *fetchTimeout,
		MaxRetries:         *retries,
		RetryBase:          *retryBase,
		RetryMax:           *retryMax,
		MinCampaignSize:    *campaignMin,
		CloakRate:          *cloakRate,
		CloakRetries:       *cloakRetries,
	}
	if *triageOn {
		opts.Triage = &triage.Options{
			CampaignThreshold: *campaignThreshold,
			TopK:              *triageTopK,
		}
	}
	if *chaosOn {
		opts.Chaos = &chaos.Profile{
			DeadRate:        *deadRate,
			StallRate:       *stallRate,
			SlowRate:        *slowRate,
			ServerErrorRate: *serrRate,
			TruncateRate:    *truncRate,
			TakedownRate:    *takedownRate,
			FlakyRate:       *flakyRate,
		}
		// Keep stall-vs-deadline separation sane at synthetic timescale:
		// a stalling site must outlive the fetch deadline.
		if opts.FetchTimeout == 0 {
			opts.FetchTimeout = 250 * time.Millisecond
		}
	}

	// Fleet modes: the coordinator and worker loops own their whole run
	// (serving or joining the lease protocol, reporting, export) and the
	// batch machinery below never starts.
	if *coordinator || *workerMode {
		fl := fleetCLI{
			addr:        *fleetAddr,
			leaseSites:  *leaseSites,
			leaseTTL:    *leaseTTL,
			journalDir:  *journalDir,
			journalSync: *journalSync,
			resume:      *resume,
			sample:      *sample,
			out:         *out,
			statusAddr:  *statusAddr,
			progress:    *progressEvery,
			workerName:  *workerName,
		}
		if *coordinator {
			runCoordinator(opts, fl)
		} else {
			runWorkerMode(opts, fl)
		}
		return
	}

	// Progress plumbing starts before the (slow) pipeline build so the
	// status endpoint answers from the first second of a run; the total is
	// filled in once the feed exists.
	var mon *farm.Monitor
	if *statusAddr != "" || *progressEvery > 0 {
		mon = farm.NewMonitor()
	}
	if *statusAddr != "" {
		srv, addr, err := serve("-status-addr", *statusAddr, statusHandler(mon))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("Status: serving live progress on http://%s/status\n", addr)
	}
	if *progressEvery > 0 {
		defer startProgressLog(func() string { return mon.Snapshot().String() }, *progressEvery)()
	}

	fmt.Printf("Building pipeline (%d sites, seed %d)...\n", *numSites, *seed)
	p, err := core.NewPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	p.Monitor = mon
	total := len(p.Feed.URLs())
	if *sample > 0 && *sample < total {
		total = *sample
	}
	mon.SetTotal(total)
	if p.Injector != nil {
		fmt.Printf("Chaos: injecting faults over %.0f%% of sites (seed %d)\n",
			p.Injector.Profile.FaultRate()*100, p.Injector.Seed)
	}
	fmt.Printf("Corpus: %d sites in %d campaigns. Crawling with %d workers...\n",
		len(p.Corpus.Sites), p.Corpus.Campaigns, *workers)
	if p.Triage != nil {
		f := p.Triage.Funnel()
		fmt.Printf("Triage: %d URLs -> %d cut, %d attributed to %d campaigns, %d full sessions\n",
			f.Total, f.Cut, f.Attributed, p.Triage.Campaigns, f.Full)
	}
	if opts.CloakRate > 0 {
		cloaked := 0
		for _, s := range p.Corpus.Sites {
			if s.Cloak != nil {
				cloaked++
			}
		}
		fmt.Printf("Cloak: %d of %d sites cloaked (rate %g, retries %d)\n",
			cloaked, len(p.Corpus.Sites), opts.CloakRate, opts.CloakRetries)
	}

	var (
		logs  []*crawler.SessionLog
		stats farm.Stats
	)
	if *journalDir != "" {
		logs, stats = crawlJournaled(p, *journalDir, *sample, *resume, *journalSync)
	} else {
		p.Crawl(*sample)
		logs, stats = p.Logs, p.Stats
	}

	printRunReport(p.Stats, logs, stats)
	exportLogs(*out, logs)

	if *memProfile != "" {
		//phishvet:ignore atomicwrite: pprof needs an open stream; a torn profile from a crash is discarded, not analyzed
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}

// printRunReport prints the crawl summary every mode shares — batch,
// journaled, and fleet-coordinator runs all end in exactly this report, so
// the fleet determinism pin can compare their output blocks directly:
// outcome counts, page/field totals, the failure taxonomy over stats, and
// the per-stage latency table folded from logs. Its first line is run, this
// process's own share: the sessions it crawled over its own elapsed time,
// so a resumed run's throughput counts no earlier run's sessions.
func printRunReport(run farm.Stats, logs []*crawler.SessionLog, stats farm.Stats) {
	fmt.Printf("\nCrawled %d sites in %s (%.0f sites/day extrapolated; paper: >1,000/day)\n",
		run.Sites, run.Elapsed.Round(1e6), run.SitesPerDay())
	var outcomes []string
	for o := range stats.Outcomes {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Printf("  %-12s %d\n", o, stats.Outcomes[o])
	}

	pages, fields := 0, 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		pages += len(l.Pages)
		for _, pg := range l.Pages {
			fields += len(pg.Fields)
		}
	}
	fmt.Printf("Pages visited: %d; input fields identified and filled: %d\n", pages, fields)

	fmt.Printf("\n%s", report.FailureTable(analysis.FailureTaxonomy(logs), stats))

	if t := report.TriageTable(logs); t != "" {
		fmt.Printf("\n%s", t)
	}

	if t := report.CloakTable(logs, stats); t != "" {
		fmt.Printf("\n%s", t)
	}

	fmt.Printf("\nPer-stage timing (session-logical clock, not wall time):\n%s", report.StageTable(logs))
}

// exportLogs writes the session logs to path as JSON Lines ("" = no
// export).
func exportLogs(path string, logs []*crawler.SessionLog) {
	if path == "" {
		return
	}
	if err := sessionio.WriteFile(path, logs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session logs written to %s\n", path)
}

// crawlJournaled runs the crash-safe crawl path: sessions stream into the
// journal as they complete, an interrupted journal resumes, and the
// returned logs/stats are the view over every session the journal holds.
// Outcome statistics are recomputed from the journaled sessions
// themselves (exact even when an earlier run was SIGKILLed); elapsed time
// and panic counts, which no session log carries and the journal does not
// record, are this process's own (p.Stats).
func crawlJournaled(p *core.Pipeline, dir string, sample int, resume bool, syncPolicy string) ([]*crawler.SessionLog, farm.Stats) {
	policy, err := parseSyncPolicy(syncPolicy)
	if err != nil {
		log.Fatal(err)
	}
	j, err := journal.Open(dir, journal.Options{Sync: policy, AfterSession: crashAfter})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	if n := j.CompletedCount(); n > 0 && !resume {
		log.Fatalf("journal %s already holds %d sessions; pass -resume to continue it or point -journal at a fresh directory", dir, n)
	}
	skipped, err := p.CrawlJournal(j, sample)
	if err != nil {
		log.Fatal(err)
	}
	if resume {
		fmt.Printf("Journal: resumed %s — %d URLs already complete, crawled %d\n", dir, skipped, p.Stats.Sites)
	} else {
		fmt.Printf("Journal: %d sessions journaled to %s\n", p.Stats.Sites, dir)
	}

	logs, err := j.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	stats := farm.Tally(logs)
	stats.Elapsed, stats.Panics = p.Stats.Elapsed, p.Stats.Panics
	return logs, stats
}
