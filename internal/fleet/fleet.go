// Package fleet is the distributed crawl plane: one coordinator process
// shards the deterministic feed into URL-index range leases and hands them
// to worker processes over a small JSON-over-HTTP wire protocol; workers
// crawl their ranges with the existing farm, journaling each shard into
// its own segment directory, and report per-shard statistics back. Leases
// expire when a worker misses its heartbeats, so a SIGKILLed worker's
// range is re-issued to a live one, and the coordinator's merged view —
// sessions deduplicated by seed URL, outcome counts tallied from them
// through farm.Tally — is byte-identical to what a single process
// crawling the whole feed would have produced
// ("N processes × M workers ≡ 1 × 1").
//
// The protocol deliberately carries no URLs in the hot path: both sides
// derive the same feed from (-sites, -seed), so a lease is just an index
// range, and the only URL lists on the wire are the already-completed sets
// a resumed coordinator sends so workers skip finished work. See
// docs/DISTRIBUTED.md for the message reference and failure model.
package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/farm"
)

// Wire paths the coordinator serves. Workers POST JSON request bodies and
// receive JSON responses; /status additionally answers GET with the
// fleet-wide progress view (plain text, or JSON with ?format=json).
const (
	PathLease     = "/fleet/lease"
	PathHeartbeat = "/fleet/heartbeat"
	PathResult    = "/fleet/result"
	PathStatus    = "/status"
)

// Lease is one unit of fleet work: crawl the feed-index range
// [Start, End), skipping the Completed URLs a previous incarnation already
// journaled. Attempt distinguishes re-issues of the same range after a
// lease expiry; each attempt journals into its own shard directory so a
// stale worker can never write into a directory its replacement has open.
type Lease struct {
	ID      int `json:"id"`
	Start   int `json:"start"`
	End     int `json:"end"`
	Attempt int `json:"attempt"`
	// Completed lists URLs inside [Start, End) that the coordinator knows
	// are already journaled (sorted; from the resume scan at startup).
	Completed []string `json:"completed,omitempty"`
}

// Range renders the lease's half-open index range for logs and status.
func (l Lease) Range() string { return fmt.Sprintf("[%d,%d)", l.Start, l.End) }

// LeaseRequest asks the coordinator for work. Manifest is the worker's run
// manifest (core.Options.Manifest): every worker derives the feed and its
// sessions locally, so the coordinator refuses a worker whose manifest is
// not byte-equal to its own — a mismatched flag would silently merge
// sessions from two configurations otherwise.
type LeaseRequest struct {
	Worker   string          `json:"worker"`
	Manifest json.RawMessage `json:"manifest"`
}

// LeaseResponse carries a granted lease, or tells the worker to wait
// (everything is leased out but the run is not finished — an expiry may
// free a range) or that the whole feed is crawled and it should exit.
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
	Wait  bool   `json:"wait,omitempty"`
	Done  bool   `json:"done,omitempty"`
	// RetryMs is how long a waiting worker should sleep before asking
	// again.
	RetryMs int `json:"retryMs,omitempty"`
	// HeartbeatMs, sent with a granted lease, is the longest heartbeat
	// interval that still beats several times per coordinator TTL; a
	// worker configured to beat less often beats this often instead.
	HeartbeatMs int `json:"heartbeatMs,omitempty"`
}

// Progress is the cumulative live-progress payload a worker reports with
// each heartbeat: session counts across every lease it has crawled so far,
// feeding the coordinator's fleet-wide /status view.
type Progress struct {
	Done     int `json:"done"`
	Retried  int `json:"retried"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	Panics   int `json:"panics"`
	// FastPathed counts sessions resolved by the triage fast path
	// (attributed to a campaign or cut at the lexical stage) — included in
	// Done.
	FastPathed int `json:"fastPathed,omitempty"`
}

// HeartbeatRequest renews a lease and reports progress.
type HeartbeatRequest struct {
	Worker   string   `json:"worker"`
	LeaseID  int      `json:"leaseId"`
	Attempt  int      `json:"attempt"`
	Progress Progress `json:"progress"`
}

// HeartbeatResponse acknowledges a heartbeat. Valid is false when the
// lease no longer belongs to this worker/attempt (it expired and was
// re-issued); the worker may finish its shard, but the result will be
// rejected as stale.
type HeartbeatResponse struct {
	Valid bool `json:"valid"`
}

// ResultRequest submits a finished shard: the per-shard farm statistics,
// whose session count, fast-path count and panics feed
// the coordinator's live status and its merged panic count. The sessions
// themselves are already durable in the shard's journal directory — the
// result message only has to say "range done, stats attached", which is
// what keeps the protocol small.
type ResultRequest struct {
	Worker  string     `json:"worker"`
	LeaseID int        `json:"leaseId"`
	Attempt int        `json:"attempt"`
	Stats   farm.Stats `json:"stats"`
}

// ResultResponse reports whether the shard was accepted. A result for a
// re-issued lease (stale attempt) or for a range another worker already
// completed is rejected — the duplicate-result suppression that keeps
// re-issued work from being double-counted.
type ResultResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// DefaultLeaseSites is how many feed URLs one lease covers by default:
// small enough that a lost worker forfeits little work, large enough that
// lease traffic stays negligible next to crawling.
const DefaultLeaseSites = 100

// DefaultLeaseTTL is how long a lease survives without a heartbeat before
// the coordinator reclaims and re-issues it.
const DefaultLeaseTTL = 10 * time.Second

// DefaultHeartbeatEvery is the worker heartbeat interval; it must beat
// several times per TTL so one dropped request cannot expire a live lease.
// A coordinator with a short TTL shortens it per lease
// (LeaseResponse.HeartbeatMs).
const DefaultHeartbeatEvery = time.Second

// ShardDir names the journal segment directory for one lease attempt under
// the fleet's journal root. Ranges are stable across coordinator restarts
// (they derive from the feed and the lease size), so a restarted
// coordinator re-issuing attempt 1 of a range reuses the directory a dead
// previous incarnation left behind — the journal's own recovery and
// completed-URL index then resume the shard — while a mid-run re-issue
// bumps the attempt and gets a fresh directory no stale worker holds open.
func ShardDir(root string, l Lease) string {
	return filepath.Join(root, fmt.Sprintf("shard-%06d-%06d-a%02d", l.Start, l.End, l.Attempt))
}
