package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/triage"
)

// cliFlags collects the parsed command-line values whose combinations can
// be incoherent. validateFlags rejects bad configurations immediately
// after flag parsing — before corpus generation and model training — so an
// operator typo fails in milliseconds, not minutes into a run.
type cliFlags struct {
	sites         int
	sample        int
	workers       int
	retries       int
	sessionBudget time.Duration
	fetchTimeout  time.Duration
	progress      time.Duration
	journalDir    string
	journalSync   string
	resume        bool
	statusAddr    string
	out           string
	coordinator   bool
	worker        bool
	fleetAddr     string
	leaseSites    int
	leaseTTL      time.Duration

	triage            bool
	campaignThreshold float64
	triageTopK        int
	campaignMin       int

	cloakRate    float64
	cloakRetries int
}

// validateFlags returns the first configuration error, or nil. Kept free
// of flag.* and os.* so tests can table-drive it directly.
func validateFlags(f cliFlags) error {
	if f.sites <= 0 {
		return fmt.Errorf("-sites must be positive (got %d)", f.sites)
	}
	if f.sample < 0 {
		return fmt.Errorf("-sample must be >= 0 (got %d; 0 crawls the full feed)", f.sample)
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d; 0 uses the default)", f.workers)
	}
	if f.retries < 0 {
		return fmt.Errorf("-retries must be >= 0 (got %d; 0 uses the farm default)", f.retries)
	}
	if f.sessionBudget < 0 {
		return fmt.Errorf("-session-budget must be >= 0 (got %v; 0 uses the crawler default)", f.sessionBudget)
	}
	if f.fetchTimeout < 0 {
		return fmt.Errorf("-fetch-timeout must be >= 0 (got %v; 0 uses the browser default)", f.fetchTimeout)
	}
	if f.progress < 0 {
		return fmt.Errorf("-progress must be >= 0 (got %v; 0 disables the periodic progress line)", f.progress)
	}
	if _, err := parseSyncPolicy(f.journalSync); err != nil {
		return err
	}
	if f.resume && f.journalDir == "" {
		return fmt.Errorf("-resume requires -journal <dir>")
	}
	if f.coordinator && f.worker {
		return fmt.Errorf("-coordinator and -worker are mutually exclusive: run each fleet process as exactly one role (the coordinator shards and merges, workers crawl)")
	}
	if f.worker && f.fleetAddr == "" {
		return fmt.Errorf("-worker requires -fleet-addr with the coordinator's address (e.g. -fleet-addr 127.0.0.1:8870)")
	}
	if f.coordinator && f.fleetAddr == "" {
		return fmt.Errorf("-coordinator requires -fleet-addr with an address to listen on (e.g. -fleet-addr 127.0.0.1:8870)")
	}
	if f.fleetAddr != "" && !f.coordinator && !f.worker {
		return fmt.Errorf("-fleet-addr does nothing without -coordinator or -worker: pick the role this process plays in the fleet")
	}
	if (f.coordinator || f.worker) && f.journalDir == "" {
		return fmt.Errorf("fleet mode requires -journal <dir>: every lease journals into a shard directory under it, and the coordinator merges from there")
	}
	if f.worker && f.resume {
		return fmt.Errorf("-resume is coordinator-side in fleet mode: restart the coordinator with -resume and it will hand workers leases that skip already-journaled URLs")
	}
	if f.worker && f.out != "" {
		return fmt.Errorf("-o in worker mode would export a single shard, not the run: pass -o to the coordinator, whose export is the merged fleet view")
	}
	if f.worker && f.statusAddr != "" {
		return fmt.Errorf("-status-addr in worker mode is not served: the coordinator's -status-addr shows fleet-wide progress including this worker's lease")
	}
	if f.leaseSites < 0 {
		return fmt.Errorf("-lease-sites must be >= 0 (got %d; 0 uses the default %d)", f.leaseSites, fleet.DefaultLeaseSites)
	}
	if f.leaseTTL < 0 {
		return fmt.Errorf("-lease-ttl must be >= 0 (got %v; 0 uses the default %v)", f.leaseTTL, fleet.DefaultLeaseTTL)
	}
	if f.campaignThreshold < 0 || f.campaignThreshold > 1 {
		return fmt.Errorf("-campaign-threshold must be in [0,1] (got %g; it is a similarity, default %g)", f.campaignThreshold, triage.DefaultCampaignThreshold)
	}
	if f.triageTopK < 0 {
		return fmt.Errorf("-triage-topk must be >= 0 (got %d; 0 disables the lexical cut)", f.triageTopK)
	}
	if f.campaignMin < 0 {
		return fmt.Errorf("-campaign-min must be >= 0 (got %d; 0 keeps the paper's campaign-size distribution)", f.campaignMin)
	}
	if !f.triage && f.triageTopK > 0 {
		return fmt.Errorf("-triage-topk does nothing without -triage: the lexical cut is the first stage of the triage funnel")
	}
	if !f.triage && f.campaignThreshold != triage.DefaultCampaignThreshold && f.campaignThreshold != 0 {
		return fmt.Errorf("-campaign-threshold does nothing without -triage: attribution runs only inside the triage funnel")
	}
	if f.cloakRate < 0 || f.cloakRate > 1 {
		return fmt.Errorf("-cloak-rate must be in [0,1] (got %g; it is the fraction of campaigns that cloak, 0 disables)", f.cloakRate)
	}
	if f.cloakRetries < 0 {
		return fmt.Errorf("-cloak-retries must be >= 0 (got %d; 0 crawls honestly with no uncloaking re-crawls)", f.cloakRetries)
	}
	if f.cloakRetries > 0 && f.cloakRate == 0 {
		return fmt.Errorf("-cloak-retries does nothing without -cloak-rate: with no cloaked campaigns in the corpus there is nothing to uncloak")
	}
	return nil
}
