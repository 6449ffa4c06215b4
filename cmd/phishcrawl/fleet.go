package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/journal"
)

// fleetCLI collects the flag values the fleet modes run from.
type fleetCLI struct {
	addr        string
	leaseSites  int
	leaseTTL    time.Duration
	journalDir  string
	journalSync string
	resume      bool
	sample      int
	out         string
	statusAddr  string
	progress    time.Duration
	workerName  string
}

// runCoordinator is phishcrawl's -coordinator mode: derive the feed (no
// model training — the coordinator never crawls), shard it into leases,
// serve the wire protocol on -fleet-addr until every lease has an accepted
// result, then merge the shard journals and print the same report a
// single-process run prints. The merged output is pinned byte-identical to
// a 1-process, 1-worker run over the same flags.
func runCoordinator(opts core.Options, fl fleetCLI) {
	manifest, err := opts.Manifest()
	if err != nil {
		log.Fatal(err)
	}
	corpus, feed := core.NewFeed(opts)
	urls := feed.URLs()
	if fl.sample > 0 && fl.sample < len(urls) {
		urls = urls[:fl.sample]
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		URLs:       urls,
		Manifest:   manifest,
		Root:       fl.journalDir,
		LeaseSites: fl.leaseSites,
		TTL:        fl.leaseTTL,
		Resume:     fl.resume,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, fleetAddr, err := serve("-fleet-addr", fl.addr, coord.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("Corpus: %d sites in %d campaigns. Fleet: coordinating %d URLs on http://%s\n",
		len(corpus.Sites), corpus.Campaigns, len(urls), fleetAddr)
	if fl.statusAddr != "" {
		// The fleet-wide progress view alone: per-worker leases, URL/lease
		// totals, throughput and ETA. The wire protocol stays on -fleet-addr.
		statusSrv, addr, err := serve("-status-addr", fl.statusAddr, coord.StatusHandler())
		if err != nil {
			log.Fatal(err)
		}
		defer statusSrv.Close()
		fmt.Printf("Status: serving fleet-wide progress on http://%s/status\n", addr)
	}
	if fl.progress > 0 {
		defer startProgressLog(func() string { return coord.Status().String() }, fl.progress)()
	}
	<-coord.Done()
	// Merge with the server still up: late workers polling for a lease get
	// the Done response and exit cleanly while the journals are read.
	logs, stats, err := coord.Merge()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fleet: all leases complete; merged %d sessions from shard journals under %s\n",
		len(logs), fl.journalDir)
	st := coord.Status()
	run := farm.Stats{Sites: st.DoneURLs - st.Recovered, Elapsed: time.Duration(st.ElapsedMs) * time.Millisecond}
	printRunReport(run, logs, stats)
	exportLogs(fl.out, logs)
}

// runWorkerMode is phishcrawl's -worker mode: build the full pipeline
// (identical corpus, feed, and trained models — the process-wide model
// cache makes repeat builds cheap), then crawl leases from the coordinator
// until the feed is done, journaling each lease into its own shard
// directory under -journal.
func runWorkerMode(opts core.Options, fl fleetCLI) {
	name := fl.workerName
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	fmt.Printf("Building pipeline (%d sites, seed %d)...\n", opts.NumSites, opts.Seed)
	p, err := core.NewPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	manifest, err := opts.Manifest()
	if err != nil {
		log.Fatal(err)
	}
	policy, err := parseSyncPolicy(fl.journalSync)
	if err != nil {
		log.Fatal(err)
	}
	// Each lease gets a fresh monitor so heartbeat progress reports the
	// shard being crawled, not the worker's lifetime totals.
	var leaseMon atomic.Pointer[farm.Monitor]
	//phishvet:ignore detertaint: the PID-derived worker name is lease bookkeeping on the coordinator — merged journal bytes are keyed by URL and stay identical whatever the workers are called
	err = fleet.RunWorker(fleet.WorkerConfig{
		Coordinator: fl.addr,
		Name:        name,
		Manifest:    manifest,
		Root:        fl.journalDir,
		Logf:        log.Printf,
		Crawl: func(l fleet.Lease, dir string) (farm.Stats, error) {
			mon := farm.NewMonitor()
			mon.SetTotal(l.End - l.Start)
			leaseMon.Store(mon)
			p.Monitor = mon
			j, err := journal.Open(dir, journal.Options{Sync: policy, AfterSession: crashAfter})
			if err != nil {
				return farm.Stats{}, err
			}
			done := make(map[string]bool, len(l.Completed))
			for _, u := range l.Completed {
				done[u] = true
			}
			err = p.CrawlJournalShard(j, l.Start, l.End, done)
			if cerr := j.Close(); err == nil && cerr != nil {
				err = cerr
			}
			return p.Stats, err
		},
		Snapshot: func() fleet.Progress {
			mon := leaseMon.Load()
			if mon == nil {
				return fleet.Progress{}
			}
			pr := mon.Snapshot()
			return fleet.Progress{
				Done:       pr.Done - pr.PreCompleted,
				Retried:    pr.Retried,
				Degraded:   pr.Degraded,
				Failed:     pr.Failed,
				Panics:     pr.Panics,
				FastPathed: pr.FastPathed,
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
}

// parseSyncPolicy maps the -journal-sync flag to the journal's policy.
func parseSyncPolicy(s string) (journal.SyncPolicy, error) {
	switch s {
	case "always":
		return journal.SyncAlways, nil
	case "none":
		return journal.SyncNone, nil
	}
	return 0, fmt.Errorf("unknown -journal-sync %q (want always or none)", s)
}
