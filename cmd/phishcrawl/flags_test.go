package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/triage"
)

// validFlags returns a baseline configuration every field of which passes
// validation; cases mutate one knob at a time.
func validFlags() cliFlags {
	return cliFlags{
		sites:       100,
		workers:     8,
		journalSync: "always",
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string // empty = must pass
	}{
		{"baseline", func(*cliFlags) {}, ""},
		{"zero workers is the default", func(f *cliFlags) { f.workers = 0 }, ""},
		{"journal alone", func(f *cliFlags) { f.journalDir = "j" }, ""},
		{"resume with journal", func(f *cliFlags) { f.journalDir = "j"; f.resume = true }, ""},
		{"status with journal", func(f *cliFlags) { f.journalDir = "j"; f.statusAddr = ":0" }, ""},
		{"progress interval", func(f *cliFlags) { f.progress = time.Second }, ""},
		{"sync none", func(f *cliFlags) { f.journalSync = "none" }, ""},

		{"zero sites", func(f *cliFlags) { f.sites = 0 }, "-sites"},
		{"negative sites", func(f *cliFlags) { f.sites = -5 }, "-sites"},
		{"negative sample", func(f *cliFlags) { f.sample = -1 }, "-sample"},
		{"negative workers", func(f *cliFlags) { f.workers = -1 }, "-workers"},
		{"negative retries", func(f *cliFlags) { f.retries = -1 }, "-retries"},
		{"negative session budget", func(f *cliFlags) { f.sessionBudget = -time.Second }, "-session-budget"},
		{"negative fetch timeout", func(f *cliFlags) { f.fetchTimeout = -time.Second }, "-fetch-timeout"},
		{"negative progress", func(f *cliFlags) { f.progress = -time.Second }, "-progress"},
		{"bad journal sync", func(f *cliFlags) { f.journalSync = "fsync" }, "-journal-sync"},
		{"sync batch", func(f *cliFlags) { f.journalSync = "batch" }, `unknown -journal-sync "batch"`},
		{"sync group", func(f *cliFlags) { f.journalSync = "group" }, `unknown -journal-sync "group" (want always or none)`},
		{"resume without journal", func(f *cliFlags) { f.resume = true }, "-resume requires -journal"},

		{"coordinator role", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
		}, ""},
		{"worker role", func(f *cliFlags) {
			f.worker = true
			f.fleetAddr = "127.0.0.1:8870"
			f.journalDir = "j"
		}, ""},
		{"coordinator with resume and export", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
			f.resume = true
			f.out = "o.jsonl"
			f.statusAddr = ":0"
		}, ""},
		{"lease tuning", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
			f.leaseSites = 60
			f.leaseTTL = 2 * time.Second
		}, ""},
		{"both roles at once", func(f *cliFlags) {
			f.coordinator = true
			f.worker = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
		}, "mutually exclusive"},
		{"worker without coordinator addr", func(f *cliFlags) {
			f.worker = true
			f.journalDir = "j"
		}, "-worker requires -fleet-addr"},
		{"coordinator without listen addr", func(f *cliFlags) {
			f.coordinator = true
			f.journalDir = "j"
		}, "-coordinator requires -fleet-addr"},
		{"fleet addr without role", func(f *cliFlags) {
			f.fleetAddr = ":0"
		}, "-fleet-addr does nothing without"},
		{"coordinator without journal", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
		}, "fleet mode requires -journal"},
		{"worker without journal", func(f *cliFlags) {
			f.worker = true
			f.fleetAddr = "127.0.0.1:8870"
		}, "fleet mode requires -journal"},
		{"resume in worker mode", func(f *cliFlags) {
			f.worker = true
			f.fleetAddr = "127.0.0.1:8870"
			f.journalDir = "j"
			f.resume = true
		}, "-resume is coordinator-side"},
		{"export in worker mode", func(f *cliFlags) {
			f.worker = true
			f.fleetAddr = "127.0.0.1:8870"
			f.journalDir = "j"
			f.out = "o.jsonl"
		}, "-o in worker mode"},
		{"status addr in worker mode", func(f *cliFlags) {
			f.worker = true
			f.fleetAddr = "127.0.0.1:8870"
			f.journalDir = "j"
			f.statusAddr = ":0"
		}, "-status-addr in worker mode"},
		{"negative lease sites", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
			f.leaseSites = -1
		}, "-lease-sites"},
		{"negative lease ttl", func(f *cliFlags) {
			f.coordinator = true
			f.fleetAddr = ":0"
			f.journalDir = "j"
			f.leaseTTL = -time.Second
		}, "-lease-ttl"},

		{"triage alone", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = triage.DefaultCampaignThreshold
		}, ""},
		{"triage with topk and threshold", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = 0.8
			f.triageTopK = 50
		}, ""},
		{"campaign-min alone reshapes the corpus", func(f *cliFlags) {
			f.campaignMin = 12
		}, ""},
		{"triage with journal and resume", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = triage.DefaultCampaignThreshold
			f.journalDir = "j"
			f.resume = true
		}, ""},
		{"threshold above one", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = 1.5
		}, "-campaign-threshold must be in [0,1]"},
		{"threshold below zero", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = -0.1
		}, "-campaign-threshold must be in [0,1]"},
		{"negative topk", func(f *cliFlags) {
			f.triage = true
			f.campaignThreshold = triage.DefaultCampaignThreshold
			f.triageTopK = -1
		}, "-triage-topk"},
		{"negative campaign-min", func(f *cliFlags) {
			f.campaignMin = -1
		}, "-campaign-min"},
		{"topk without triage", func(f *cliFlags) {
			f.triageTopK = 10
		}, "-triage-topk does nothing without -triage"},
		{"threshold without triage", func(f *cliFlags) {
			f.campaignThreshold = 0.7
		}, "-campaign-threshold does nothing without -triage"},
		{"cloak rate alone", func(f *cliFlags) {
			f.cloakRate = 0.6
		}, ""},
		{"cloak rate with retries", func(f *cliFlags) {
			f.cloakRate = 0.6
			f.cloakRetries = 5
		}, ""},
		{"cloak rate above one", func(f *cliFlags) {
			f.cloakRate = 1.5
		}, "-cloak-rate must be in [0,1]"},
		{"cloak rate negative", func(f *cliFlags) {
			f.cloakRate = -0.1
		}, "-cloak-rate must be in [0,1]"},
		{"negative cloak retries", func(f *cliFlags) {
			f.cloakRate = 0.5
			f.cloakRetries = -1
		}, "-cloak-retries must be >= 0"},
		{"cloak retries without rate", func(f *cliFlags) {
			f.cloakRetries = 3
		}, "-cloak-retries does nothing without -cloak-rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFlags()
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want nil", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%+v) passed, want error mentioning %q", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
