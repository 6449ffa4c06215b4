# Developer entry points. Everything is plain go tooling; the targets exist
# so CI and humans run the same commands.

GO ?= go

.PHONY: all build test race vet bench-check lint bench alloc-gate pins chaos fuzz status-smoke fleet-smoke triage-smoke cloak-smoke paper-check check

all: build

build:
	$(GO) build ./...

# Default test gate: lint first (gofmt, go vet, phishvet), the full suite,
# then the race detector over the resilience-critical packages (retry
# queue, fault injector, context deadlines, the journal's commit loop, the
# parallel session decode) so a data race on the farm's retry paths, the
# journal's append path or a saved crawl's read fails `make test`.
test: lint
	$(GO) test ./...
	$(GO) test -race ./internal/farm/... ./internal/chaos/... ./internal/browser/... ./internal/fleet/... ./internal/journal/... ./internal/sessionio/...

# The farm and crawler are the concurrent hot paths (shared session
# tally, worker pool over one crawler template, retry re-enqueues), the
# fleet coordinator serves concurrent workers, every journaled session
# goes through the journal's commit loop, and every saved crawl is read
# back through the parallel session decode; keep them race-clean.
race:
	$(GO) test -race ./internal/farm/... ./internal/crawler/... ./internal/chaos/... ./internal/browser/... ./internal/fleet/... ./internal/journal/... ./internal/sessionio/...

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
# progress counts and the progress line. The curl equivalent is
# `curl http://ADDR/status?format=json`.
status-smoke:
	$(GO) test -run 'StatusSmoke' ./cmd/phishcrawl/...

# Distributed-determinism smoke: a coordinator and loopback workers crawl
# the feed as a fleet. The first worker runs alone with
# PHISHCRAWL_CRASH_AFTER=20 and SIGKILLs itself after its 20th journaled
# session, inside its first 60-site lease (forcing a lease expiry and
# re-issue); two more workers then crawl the rest, and the coordinator's
# merged export must match a single-process run byte-for-byte. See
# docs/DISTRIBUTED.md.
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

# Coverage-guided fuzzing: the journal's record framing (encode/decode
# round-trips, CRC mismatch detection, hostile length prefixes), the
# raster cell-count kernel under the perceptual hash and visual embedding
# (equal to the per-pixel reference loops on random images and regions),
# the PXI image decoder (no panic on hostile data, Decode and ParseRuns
# accepting what a per-pixel reference decoder accepts, Decode equal to it,
# runs painted at placements derived from the input equal to Blit of the
# decoded image, Decode(Encode(img)) round-trips, Encode equal to the
# per-pixel encoder), the detector's features, proposals and detections
# (equal to the cell-by-cell labeling, the 3-lane summed-area features and
# the unpruned checkbox search they replaced, DetectClass equal to the
# reference filtered by class), the HTML parser (no panic, and a rendered
# tree parses back to the same StructureHash), the page content key (equal
# keys render bit-identical screenshots; changing one attribute, text byte
# or image byte, or removing an image, changes the key), the page scan key
# (typing into the value holes keeps the key and changes no pixel outside
# them; equal keys render equal pixels outside the holes; changing one kept
# attribute, text byte or image byte changes the key), the detector's
# rescan (rescanning an image that differs from a scanned one inside
# outlined boxes equals Detect and DetectClass; a broken outline or
# overlapping boxes fall back to Detect), the behaviour script parser (no
# panic, and an accepted behaviour survives Marshal), the fleet
# coordinator's wire handlers (no panic, 200 or 4xx, and no range done
# that was not leased to the worker and attempt completing it), the
# journal's run binding over hostile segment bytes (no panic in Open or
# BindRun, and a journal bound to a manifest still accepts it and refuses
# another after a reopen), the journal's SeedURL key scan (a marshalled
# session log reads back its SeedURL, no panic on raw bytes, and agreement
# with json.Unmarshal wherever that accepts an object without repeated
# keys) and the browser's
# cookie jar and redirect loop against a hostile server (no panic, giving
# up after 10 hops, a sorted and reproducible Cookie header, expired
# cookies dropped, a POST body kept only across 307/308) and the session
# log reader over hostile JSON Lines (no panic, and an accepted input
# survives Write and a second Read, an empty list reading back as nil).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzRecordRoundTrip -fuzztime=15s ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzCellCounts -fuzztime=15s ./internal/raster
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=15s ./internal/raster
	$(GO) test -run='^$$' -fuzz=FuzzFeatures -fuzztime=15s ./internal/vision
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=15s ./internal/dom
	$(GO) test -run='^$$' -fuzz=FuzzContentKey -fuzztime=15s ./internal/browser
	$(GO) test -run='^$$' -fuzz=FuzzExtract -fuzztime=15s ./internal/script
	$(GO) test -run='^$$' -fuzz=FuzzScanKey -fuzztime=15s ./internal/browser
	$(GO) test -run='^$$' -fuzz=FuzzRescan -fuzztime=15s ./internal/vision
	$(GO) test -run='^$$' -fuzz=FuzzCoordinatorRequests -fuzztime=15s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzBindRun -fuzztime=15s ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzSessionURL -fuzztime=15s ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzNavigate -fuzztime=15s ./internal/browser
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=15s ./internal/sessionio

# Hot-path microbenchmarks: the detector pass (BenchmarkDetect on one
# synthetic page; the pattern also matches BenchmarkDetectPages, Detect per
# page over every rendered page of a 60-site corpus, and
# BenchmarkDetectClassPages, the visual submit strategy's
# DetectClass(page, button) over the same pages; BenchmarkTypedPageDetect
# times DetectClass against a Rescan from the untyped page's scan on each
# data page of that corpus with forged values typed), the render layer
# (BenchmarkRenderPages: every page of a 60-site corpus, its images
# validated into runs and painted into the screenshot), the per-page OCR
# label search, one crawl session (fresh and pooled), the model build, the
# triage probe's pHash and cropped embedding of a rendered landing page, and
# a whole triage plan of a 120-site clone-heavy feed (BenchmarkBuildPlan,
# without a memo and with a fresh page memo per plan), and the generation
# of a 2,400-site clone-heavy corpus (BenchmarkGenerate), and the farm
# layer alone (BenchmarkRunStream: 200 pixel-free sessions at Workers 2
# behind a 1 ms timer per request and a 100 µs timer per sink delivery,
# reported in sites/s), and the report's read of a finished journal
# (BenchmarkReadSessions: 2,000 crawled sessions, frames and parallel
# decode).
# End-to-end throughput is measured by `python3 _phishbench/run.py`, not here.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkDetect|BenchmarkTypedPageDetect|BenchmarkRenderPages|BenchmarkOCRPage|BenchmarkCrawlSession|BenchmarkNewPipeline|BenchmarkComputeRegion|BenchmarkEmbedCropped|BenchmarkBuildPlan|BenchmarkGenerate|BenchmarkRunStream|BenchmarkReadSessions' -benchmem ./...

# Allocation gates: the per-session allocs/op budgets and the
# pooled-vs-unpooled byte-identity pins (testing.AllocsPerRun enforces the
# budget; a pooling regression fails here before it shows up in bench),
# plus the cuts that keep the crawl's garbage down now that the corpus no
# longer pads the heap: a pHash counted on the stack, a response body read
# into one buffer of its declared length, encoded images without spare
# capacity, and TrainModels streaming its detector pages through one
# screenshot (its detector equal to vision.Train over the held set).
alloc-gate:
	$(GO) test -run 'Alloc|Pooled|HasTokens|ExactLength|DetectorMatchesTrain' ./internal/crawler/... ./internal/textclass/... ./internal/phash/ ./internal/browser/ ./internal/raster/ ./internal/core/

# Byte-identity pins under varied scheduling: the farm's 1-vs-30-worker
# pins (plain, pooled, fault-injected, and the stage table folded from
# each run's logs), the triage probe
# pool's 1-vs-8-worker pin, the pooled == unpooled session pins, the
# memo == no-memo session pin and the triage plan's memo == no-memo pin,
# three times each at GOMAXPROCS=1 and GOMAXPROCS=2. Sessions give their
# compute slot back while they wait on the network, so the order sessions
# run in changes with every schedule; these pins prove the bytes do not.
# Two more pin the corpus: shared campaign kits equal a build of every
# deployment from scratch, and a chaos+cloak crawl leaves the shared kits
# unchanged. Three pin the farm's admission, whose in-flight count moves
# most at GOMAXPROCS=1: computing never exceeds Workers and in flight
# reaches but never passes its cap, and neither sessions held on the
# network nor ones held in the sink stop a Workers-1 farm admitting more.
# One pins the journal's parallel decode: ReadSessions and Sessions over a
# many-segment journal with re-crawled URLs equal a serial decode loop.
PINS = ^(TestRunDeterministicAcrossWorkerCounts.*|TestChaosDeterministicAcrossWorkerCounts|TestStagesIdenticalAcrossWorkerCounts|TestBuildPlanDeterministicAcrossWorkers|TestBuildPlanMemoMatchesNoMemo|TestCrawlPooledMatchesUnpooled.*|TestCrawlMemoMatchesNoMemo|TestKitsMatchPerDeploymentBuild|TestCrawlLeavesCorpusUnchanged|TestSlotBounds|TestHeldRoundTripsKeepAdmitting|TestHeldSinkKeepsAdmitting|TestReadSessionsMatchesSerialDecode)$$
pins:
	for procs in 1 2; do \
		GOMAXPROCS=$$procs $(GO) test -count=3 -run '$(PINS)' ./internal/farm/ ./internal/crawler/ ./internal/triage/ ./internal/sitegen/ ./internal/core/ ./internal/journal/ || exit 1; \
	done

# The reproduction report as a checked artifact: phishreport's stdout is a
# pure function of its flags (the run's date and wall time go to stderr),
# so a 2,000-site report (~3 s) regenerated here must equal the committed
# testdata/paper-report.md byte for byte. A change that moves a paper
# number fails until the snapshot is regenerated with the same command and
# the moved numbers are named in CHANGES.md. The replay path is pinned
# too: the same crawl saved by phishcrawl as a JSON Lines export and as a
# journal must report the same bytes through phishreport -i.
PAPER_FLAGS = -sites 2000 -seed 42 -workers 2
paper-check:
	@tmp=$$(mktemp -d); \
	fail() { cat $$tmp/err 2>/dev/null; echo "$$1"; rm -rf $$tmp; exit 1; }; \
	$(GO) build -o $$tmp/ ./cmd/phishcrawl ./cmd/phishreport 2>$$tmp/err || fail "build failed"; \
	$$tmp/phishreport $(PAPER_FLAGS) -o $$tmp/report.md >/dev/null 2>$$tmp/err || fail "phishreport failed"; \
	diff -u testdata/paper-report.md $$tmp/report.md || fail "paper report differs: regenerate with go run ./cmd/phishreport $(PAPER_FLAGS) > testdata/paper-report.md"; \
	$$tmp/phishcrawl $(PAPER_FLAGS) -o $$tmp/logs.jsonl -journal $$tmp/j >/dev/null 2>$$tmp/err || fail "phishcrawl failed"; \
	for in in logs.jsonl j; do \
		$$tmp/phishreport $(PAPER_FLAGS) -i $$tmp/$$in -o $$tmp/replay.md >/dev/null 2>$$tmp/err || fail "phishreport -i $$in failed"; \
		rm -f $$tmp/err; \
		diff -u testdata/paper-report.md $$tmp/replay.md || fail "phishreport -i $$in differs from the crawl's report"; \
	done; \
	rm -rf $$tmp

check: build lint bench-check test race alloc-gate pins paper-check
