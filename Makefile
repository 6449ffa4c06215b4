# Developer entry points. Everything is plain go tooling; the targets exist
# so CI and humans run the same commands.

GO ?= go

.PHONY: all build test race vet bench-check lint bench alloc-gate pins chaos fuzz status-smoke fleet-smoke triage-smoke cloak-smoke check

all: build

build:
	$(GO) build ./...

# Default test gate: lint first (gofmt, go vet, phishvet), the full suite,
# then the race detector over the resilience-critical packages (retry
# queue, fault injector, context deadlines) so a data race on the farm's
# new retry paths fails `make test`.
test: lint
	$(GO) test ./...
	$(GO) test -race ./internal/farm/... ./internal/chaos/... ./internal/browser/... ./internal/fleet/...

# The farm and crawler are the concurrent hot paths (shared stage-timing
# collector, worker pool over one crawler template, retry re-enqueues), and
# the fleet coordinator serves concurrent workers; keep them race-clean.
race:
	$(GO) test -race ./internal/farm/... ./internal/crawler/... ./internal/chaos/... ./internal/browser/... ./internal/fleet/...

vet:
	$(GO) vet ./...

# The end-to-end benchmark (_phishbench/) is its own Go module that imports
# this one, so neither `go vet ./...` nor `go test ./...` at the root ever
# compiles it. Vetting and testing it here makes a core/farm/journal change
# that breaks the benchmark, or the byte-identity of its sessions across
# worker counts, fail the gate instead of the benchmark run (~25 s).
bench-check:
	cd _phishbench && $(GO) vet ./... && $(GO) test ./...

# Static gate: formatting, go vet, and phishvet — the project's
# determinism-and-durability linter, nine rules across two layers: the
# local ones (map-order leaks, wall-clock reads, global randomness,
# dropped durability errors, non-atomic writes) and the flow-aware ones
# built on the call graph and taint engine (locks held across blocking
# ops, leak-prone goroutines, nondeterminism reaching journal sinks,
# non-exhaustive switches over closed const sets). On failure the summary
# line carries per-rule finding counts; `go run ./cmd/phishvet -json ./...`
# emits the same findings one JSON object per line, and `-audit` lists
# every suppression with its justification. See docs/OPERATIONS.md for
# the rule catalog and suppression syntax.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/phishvet ./...

# The fault-injection matrix: every chaos/retry/deadline/budget test under
# the race detector, plus the crash-recovery suite — journal torn-tail and
# corruption handling, and the kill-and-resume smoke run (SIGKILL a
# journaled crawl mid-run, tear the tail, resume, require output identical
# to an uninterrupted run). This is the resilience acceptance gate — it
# includes the 1-vs-30-worker determinism pin for fault-injected crawls and
# the fleet smoke run (SIGKILL a fleet worker mid-lease; the re-issued
# lease and merged output must still match a single process exactly).
chaos: status-smoke fleet-smoke triage-smoke cloak-smoke
	$(GO) test -race -run 'Chaos|Retry|Fault|Panic|Deadline|Budget|Takedown|Dead|Stall|Truncat|Backoff|SessionContext|ClassifyError|Journal|TornTail|Resume|Lease|Worker|Cloak' \
		./internal/chaos/... ./internal/farm/... ./internal/crawler/... ./internal/browser/... ./internal/journal/... ./internal/fleet/...
	$(GO) test -run 'KillResumeSmoke' ./cmd/phishcrawl/...

# Live-telemetry smoke: start a short crawl with -status-addr, hit the
# /status endpoint mid-run (JSON and plain text), and require well-formed
# progress counts and per-stage p50/p90/p99. The curl equivalent is
# `curl http://ADDR/status?format=json`.
status-smoke:
	$(GO) test -run 'StatusSmoke' ./cmd/phishcrawl/...

# Distributed-determinism smoke: a coordinator and two loopback workers
# crawl the feed as a fleet, one worker is SIGKILLed mid-lease (forcing a
# lease expiry and re-issue) and a replacement joins mid-run, and the
# coordinator's merged export must match a single-process run
# byte-for-byte. See docs/DISTRIBUTED.md.
fleet-smoke:
	$(GO) test -run 'FleetSmoke' ./cmd/phishcrawl/...

# Triage acceptance smoke: crawl a clone-heavy synthetic feed (~90%
# near-duplicates) with -triage and require >= 5x fewer full browser
# sessions, zero recall loss against a full crawl, and byte-identical
# exports across 1-vs-30 workers and a SIGKILL + torn-tail + resume of a
# journaled triage run. See docs/OPERATIONS.md ("Clone-heavy feeds").
triage-smoke:
	$(GO) test -run 'TriageSmoke' ./cmd/phishcrawl/...

# Cloaking acceptance smoke: crawl a majority-cloaked corpus and require
# that the honest crawl loses those sites to benign decoys, that the
# adaptive uncloaking loop (-cloak-retries) recovers >= 90% of them into
# real measurements, and that exports stay byte-identical across
# 1-vs-30 workers and a SIGKILL + torn-tail + resume of a journaled
# adaptive run. See docs/OPERATIONS.md ("Cloaked feeds").
cloak-smoke:
	$(GO) test -run 'CloakSmoke' ./cmd/phishcrawl/...

# Coverage-guided fuzzing of the journal's record framing: encode/decode
# round-trips, CRC mismatch detection, and hostile length prefixes.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzRecordRoundTrip -fuzztime=15s ./internal/journal

# Hot-path microbenchmarks: the detector pass, the per-page OCR label
# search, one crawl session (fresh and pooled) and the model build. End-to-end
# throughput is measured by `python3 _phishbench/run.py`, not here.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkDetect|BenchmarkOCRPage|BenchmarkCrawlSession|BenchmarkNewPipeline' -benchmem ./...

# Allocation gates: the per-session allocs/op budgets and the
# pooled-vs-unpooled byte-identity pins (testing.AllocsPerRun enforces the
# budget; a pooling regression fails here before it shows up in bench).
alloc-gate:
	$(GO) test -run 'Alloc|Pooled|HasTokens' ./internal/crawler/... ./internal/textclass/...

# Byte-identity pins under varied scheduling: the farm's 1-vs-30-worker
# pins (plain, pooled, fault-injected, stage table), the triage probe
# pool's 1-vs-8-worker pin and the pooled == unpooled session pins, three
# times each at GOMAXPROCS=1 and GOMAXPROCS=2. Sessions give their compute
# slot back while they wait on the network, so the order sessions run in
# changes with every schedule; these pins prove the bytes do not.
PINS = ^(TestRunDeterministicAcrossWorkerCounts.*|TestChaosDeterministicAcrossWorkerCounts|TestStagesIdenticalAcrossWorkerCounts|TestBuildPlanDeterministicAcrossWorkers|TestCrawlPooledMatchesUnpooled.*)$$
pins:
	for procs in 1 2; do \
		GOMAXPROCS=$$procs $(GO) test -count=3 -run '$(PINS)' ./internal/farm/ ./internal/crawler/ ./internal/triage/ || exit 1; \
	done

check: build lint bench-check test race alloc-gate pins
