// Package journal is the crash-safe crawl record store: an append-only log
// of finished crawl sessions in rolling, CRC-framed segment files. The
// paper's measurement crawl runs for 43 days; this package is what makes
// such a run survivable — every finished session is durable the moment its
// append returns, a crash (even one that tears the final record mid-write) is
// recovered on the next Open by truncating the torn tail, and the
// completed-URL checkpoint index lets a resumed run re-crawl only the URLs
// it never finished. A MANIFEST file tracks segment order; a CHECKPOINT
// file caches the completed-URL index so reopening a long journal does not
// re-parse every session payload. Both are replaced atomically
// (write-temp, fsync, rename), so the segment files themselves are the
// only mutable state — and they only ever grow, except for tail
// truncation during recovery.
//
// Every record reaches the disk through one path, the group commit in
// group.go: appends queue, a background loop writes each queued frame and
// shares one fsync among them, and only then are their callers released.
// The first failed write, roll or fsync poisons the journal for good.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/crawler"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways makes every acknowledged append durable: each batch of
	// group-committed appends is fsynced once before any of its callers
	// returns, so concurrent appenders share one fsync instead of paying
	// one apiece. A crash loses only appends that had not yet returned (at
	// most one per concurrent appender); a resumed run re-crawls exactly
	// those URLs. The default, and what a 43-day crawl wants.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves durability to the OS page cache (tests, throwaway
	// runs). The run record and Close still sync.
	SyncNone
)

// Options tunes a journal; the zero value is production-safe.
type Options struct {
	// SegmentBytes rolls to a new segment file once the active one would
	// exceed this size (default 4 MiB).
	SegmentBytes int
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// CheckpointEvery rewrites the completed-URL checkpoint after this
	// many session appends (default 256). The checkpoint is an
	// optimization only — recovery never trusts it past the data.
	CheckpointEvery int
	// AfterSession, when set, is called right after each session record's
	// frame is written, before its batch is synced, under the journal's
	// write lock: when its n-th call runs, exactly n session frames have
	// been written. Crash tests use it to kill the process at an exact
	// record count (a process kill keeps the page cache, so all n frames
	// survive it).
	AfterSession func()
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 256
	}
	return o
}

const (
	manifestName   = "MANIFEST"
	checkpointName = "CHECKPOINT"
	segmentPrefix  = "seg-"
	segmentSuffix  = ".wal"
)

// segmentInfo is one manifest entry. FirstSeq is the sequence number the
// segment's first record has (or would have, while it is still empty).
type segmentInfo struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"firstSeq"`
}

type manifest struct {
	Version  int           `json:"version"`
	Segments []segmentInfo `json:"segments"`
}

type checkpoint struct {
	// Seq is the last sequence number the URL index below reflects; every
	// record at or below it was durable when the checkpoint was written.
	Seq uint64 `json:"seq"`
	// URLs maps each completed URL to the sequence number of its latest
	// session record.
	URLs map[string]uint64 `json:"urls"`
	// Run is the run manifest record's payload, so a reopen that skips the
	// sealed segment holding that record still knows it.
	Run []byte `json:"run,omitempty"`
}

// Journal is an open crawl journal. All methods are safe for concurrent
// use; appends are serialized internally, so it can be handed directly to
// farm.Config.Sink.
type Journal struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segments   []segmentInfo
	active     *os.File
	activeSize int64
	nextSeq    uint64
	completed  map[string]uint64
	run        []byte // the run manifest record's payload; nil until one exists
	unsynced   int    // appends since the last fsync
	dirtyCkpt  int    // session appends since the last checkpoint write
	err        error  // the first commit failure; it poisons the journal

	// Commit-loop state. pending is the queue the loop drains; groupCond
	// (sharing mu) wakes it; stopping, set by Close, tells it to close the
	// journal once drained, and loopDone reports that it has, with
	// closeErr.
	groupCond *sync.Cond
	pending   []*groupReq
	stopping  bool
	loopDone  chan struct{}
	closeErr  error
}

// Open opens (or creates) the journal in dir, recovering from any crash
// that interrupted a previous writer: a torn record at the tail of the
// last segment is truncated away, an orphan segment from an interrupted
// roll is adopted, a stale segment left by an earlier version's
// interrupted compaction is removed, and a checkpoint that claims more
// than the surviving data is discarded and rebuilt by scanning.
// Corruption anywhere else (a sealed segment that no longer parses) is an
// error, never silent loss.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, completed: map[string]uint64{}}
	if err := j.loadManifest(); err != nil {
		return nil, err
	}
	ckpt, err := j.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	if err := j.recover(ckpt); err != nil {
		// A checkpoint ahead of the surviving data (possible after an OS
		// crash under SyncNone) is discarded, and the index rebuilt from
		// the records alone.
		if !errors.Is(err, errStaleCheckpoint) {
			return nil, err
		}
		j.completed = map[string]uint64{}
		j.run = nil
		if err := j.recover(nil); err != nil {
			return nil, err
		}
	}
	last := j.segments[len(j.segments)-1]
	f, err := os.OpenFile(filepath.Join(dir, last.Name), os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: opening active segment: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close() // the Seek failure is the error worth reporting
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.groupCond = sync.NewCond(&j.mu)
	j.loopDone = make(chan struct{})
	go j.commitLoop()
	return j, nil
}

// loadManifest reads MANIFEST, reconciles it with the segment files
// actually on disk, and initializes an empty journal when there is
// neither.
func (j *Journal) loadManifest() error {
	onDisk, err := listSegments(j.dir)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(j.dir, manifestName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No manifest. Adopt whatever segments exist, in name order (the
		// manifest is reconstructible; the data files are authoritative).
		for _, name := range onDisk {
			j.segments = append(j.segments, segmentInfo{Name: name})
		}
	case err != nil:
		return fmt.Errorf("journal: reading manifest: %w", err)
	default:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("journal: parsing manifest: %w", err)
		}
		j.segments = m.Segments
		listed := make(map[string]bool, len(m.Segments))
		for _, s := range m.Segments {
			if _, err := os.Stat(filepath.Join(j.dir, s.Name)); err != nil {
				return fmt.Errorf("journal: manifest names missing segment %s: %w", s.Name, err)
			}
			listed[s.Name] = true
		}
		lastName := ""
		if len(m.Segments) > 0 {
			lastName = m.Segments[len(m.Segments)-1].Name
		}
		for _, name := range onDisk {
			switch {
			case listed[name]:
			case name > lastName:
				// An orphan past the manifest's tail: a roll crashed after
				// creating the file but before committing the manifest. It
				// holds no records (writes only move after the commit);
				// adopt it as the next segment.
				j.segments = append(j.segments, segmentInfo{Name: name})
			default:
				// A leftover below the manifest's tail. Only an earlier
				// version's compaction wrote such files: interrupted after
				// it committed a manifest without the old segments, it left
				// them behind.
				if err := os.Remove(filepath.Join(j.dir, name)); err != nil {
					return fmt.Errorf("journal: removing stale segment: %w", err)
				}
			}
		}
	}
	if len(j.segments) == 0 {
		name := segmentName(1)
		if err := createFileSync(filepath.Join(j.dir, name)); err != nil {
			return err
		}
		j.segments = []segmentInfo{{Name: name, FirstSeq: 1}}
		j.nextSeq = 1
		return j.writeManifest()
	}
	return nil
}

func (j *Journal) loadCheckpoint() (*checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(j.dir, checkpointName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: reading checkpoint: %w", err)
	}
	var c checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		// A half-written checkpoint cannot happen (atomic rename), but a
		// damaged one is still only a cache: rebuild by scanning.
		return nil, nil
	}
	return &c, nil
}

var errStaleCheckpoint = errors.New("journal: checkpoint ahead of data")

// recover scans the segments, rebuilding the completed-URL index and
// truncating a torn tail off the final segment. With a checkpoint, sealed
// segments wholly covered by it are skipped and the index is seeded from
// it.
func (j *Journal) recover(ckpt *checkpoint) error {
	if ckpt != nil {
		for u, s := range ckpt.URLs {
			j.completed[u] = s
		}
		j.run = ckpt.Run
	}
	// dataMax is the highest sequence number the segment files provably
	// hold — from scanning, or from a skipped sealed segment's coverage
	// (it ends just below the next segment's first sequence). A checkpoint
	// claiming more than dataMax outran the data (an OS crash under a
	// relaxed sync policy) and must not be trusted.
	var dataMax uint64
	for i := range j.segments {
		last := i == len(j.segments)-1
		if ckpt != nil && !last {
			// Segment i holds seqs below segments[i+1].FirstSeq; if the
			// checkpoint already covers all of them, skip the scan.
			if next := j.segments[i+1].FirstSeq; next > 0 && next-1 <= ckpt.Seq {
				if next-1 > dataMax {
					dataMax = next - 1
				}
				continue
			}
		}
		segMax, first, err := j.scanSegment(i, last, ckpt)
		if err != nil {
			return err
		}
		if first > 0 && j.segments[i].FirstSeq == 0 {
			j.segments[i].FirstSeq = first
		}
		if segMax > dataMax {
			dataMax = segMax
		}
	}
	if ckpt != nil && ckpt.Seq > dataMax {
		return errStaleCheckpoint
	}
	j.nextSeq = dataMax + 1
	if j.segments[len(j.segments)-1].FirstSeq == 0 {
		j.segments[len(j.segments)-1].FirstSeq = j.nextSeq
	}
	return nil
}

// scanSegment replays one segment into the completed index. For the final
// segment a torn tail is truncated in place; anywhere else it is
// corruption. Returns the highest sequence seen and the first sequence in
// the segment (0 when empty).
func (j *Journal) scanSegment(i int, last bool, ckpt *checkpoint) (maxSeq, firstSeq uint64, err error) {
	path := filepath.Join(j.dir, j.segments[i].Name)
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var (
		off int64
		buf []byte
	)
	for {
		rec, n, err := readFrame(br, size-off, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !last {
				return 0, 0, fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, j.segments[i].Name, off, err)
			}
			// Torn tail: drop the partial record, keep everything before it.
			if terr := os.Truncate(path, off); terr != nil {
				return 0, 0, fmt.Errorf("journal: truncating torn tail: %w", terr)
			}
			if terr := syncPath(path); terr != nil {
				return 0, 0, terr
			}
			break
		}
		if firstSeq == 0 {
			firstSeq = rec.Seq
		}
		maxSeq = rec.Seq
		if rec.Kind == KindSession && (ckpt == nil || rec.Seq > ckpt.Seq) {
			if url := sessionURL(rec.Payload); url != "" {
				j.completed[url] = rec.Seq
			}
		}
		if rec.Kind == KindRun && j.run == nil {
			j.run = bytes.Clone(rec.Payload)
		}
		off += int64(n)
	}
	if last {
		j.activeSize = off
	}
	return maxSeq, firstSeq, nil
}

// sessionURL extracts just the SeedURL from a session payload without
// decoding the full log.
func sessionURL(payload []byte) string {
	var probe struct{ SeedURL string }
	if err := json.Unmarshal(payload, &probe); err != nil {
		return ""
	}
	return probe.SeedURL
}

// AppendSession appends one finished crawl session and marks its SeedURL
// completed. It queues the record for the commit loop and returns once the
// batch holding it is committed; under SyncAlways the record is then
// durable.
func (j *Journal) AppendSession(lg *crawler.SessionLog) error {
	payload, err := json.Marshal(lg)
	if err != nil {
		return fmt.Errorf("journal: encoding session: %w", err)
	}
	if err := checkSize(payload); err != nil {
		return err
	}
	req := &groupReq{kind: KindSession, payload: payload, url: lg.SeedURL, done: make(chan error, 1)}
	j.mu.Lock()
	if err := j.shutLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	j.pending = append(j.pending, req)
	j.groupCond.Signal()
	j.mu.Unlock()
	return <-req.done
}

// checkSize refuses a payload too large to frame. The refusal is the
// caller's error, not the journal's: it poisons nothing.
func checkSize(payload []byte) error {
	if len(payload) > MaxRecordBytes-bodyMinSize {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", len(payload))
	}
	return nil
}

// shutLocked reports why the journal takes no more records: its first
// commit failure, or Close.
func (j *Journal) shutLocked() error {
	if j.err != nil {
		return j.err
	}
	if j.stopping {
		return fmt.Errorf("journal: closed")
	}
	return nil
}

// BindRun ties the journal to one run configuration, given as the run
// manifest: the canonical bytes of every option that changes session
// bytes. A journal with neither a run record nor sessions records the
// manifest durably before anything else. A journal with a run record
// accepts only byte-equal manifests. A journal with sessions but no run
// record predates run manifests; nothing vouches for the configuration
// behind its sessions, so it is refused (it still opens and reports).
// Resumed crawls and fleet shards call BindRun before their first session,
// so no journal ever mixes sessions from two configurations. An empty
// manifest is refused before anything is appended: it would bind nothing.
func (j *Journal) BindRun(manifest []byte) error {
	if len(manifest) == 0 {
		return fmt.Errorf("journal: %s: empty run manifest", j.dir)
	}
	if err := checkSize(manifest); err != nil {
		return err
	}
	//phishvet:ignore locknoblock: j.mu is the WAL's write order — the run record and its fsync must precede every session append
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.shutLocked(); err != nil {
		return err
	}
	switch {
	case j.run != nil:
		if !bytes.Equal(j.run, manifest) {
			return fmt.Errorf("journal: %s was recorded under run manifest\n  %s\nbut this run's manifest is\n  %s\nresume with the original flags or point at a fresh directory", j.dir, j.run, manifest)
		}
		return nil
	case len(j.completed) > 0:
		return fmt.Errorf("journal: %s holds %d sessions but no run manifest (it predates run manifests); it can be reported but not resumed", j.dir, len(j.completed))
	}
	if err := j.commitBatchLocked([]*groupReq{{kind: KindRun, payload: manifest}}); err != nil {
		return err
	}
	j.run = append([]byte(nil), manifest...)
	return nil
}

func (j *Journal) syncActiveLocked() error {
	if j.unsynced == 0 {
		return nil
	}
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.unsynced = 0
	return nil
}

// rollLocked seals the active segment and starts the next one. The commit
// point is the manifest rename; a crash before it leaves an empty orphan
// that Open adopts.
func (j *Journal) rollLocked() error {
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	j.unsynced = 0
	name := segmentName(segmentNumber(j.segments[len(j.segments)-1].Name) + 1)
	if err := createFileSync(filepath.Join(j.dir, name)); err != nil {
		return err
	}
	j.segments = append(j.segments, segmentInfo{Name: name, FirstSeq: j.nextSeq})
	if err := j.writeManifest(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(j.dir, name), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.activeSize = 0
	return nil
}

// writeCheckpointLocked syncs the data first, then atomically replaces the
// checkpoint, so the checkpoint never claims records the disk does not
// hold.
func (j *Journal) writeCheckpointLocked() error {
	if err := j.syncActiveLocked(); err != nil {
		return err
	}
	c := checkpoint{Seq: j.nextSeq - 1, URLs: j.completed, Run: j.run}
	data, err := json.Marshal(&c)
	if err != nil {
		return fmt.Errorf("journal: encoding checkpoint: %w", err)
	}
	if err := atomicWriteFile(filepath.Join(j.dir, checkpointName), data); err != nil {
		return err
	}
	j.dirtyCkpt = 0
	return nil
}

func (j *Journal) writeManifest() error {
	data, err := json.MarshalIndent(manifest{Version: 1, Segments: j.segments}, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: encoding manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(j.dir, manifestName), data)
}

// Close stops the commit loop, which commits every append accepted before
// Close, syncs, writes a final checkpoint and releases the active segment.
// A poisoned journal writes no checkpoint, and Close returns its first
// commit failure. Later calls return what the first one did.
func (j *Journal) Close() error {
	j.mu.Lock()
	j.stopping = true
	j.groupCond.Signal()
	j.mu.Unlock()
	<-j.loopDone
	return j.closeErr
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Completed reports whether url already has a journaled session — the
// resume predicate handed to farm.Config.Skip.
func (j *Journal) Completed(url string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.completed[url]
	return ok
}

// CompletedCount returns how many distinct URLs have journaled sessions.
func (j *Journal) CompletedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.completed)
}

// CompletedURLs returns a copy of the completed-URL set.
func (j *Journal) CompletedURLs() map[string]bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]bool, len(j.completed))
	for u := range j.completed {
		out[u] = true
	}
	return out
}

// Scan streams every record in sequence order through fn, reading straight
// off the segment files without loading a segment into memory. Every record
// is read into one reused buffer: a record's Payload is valid only during
// fn's call with it, and fn must copy what it keeps. Scan may run while
// appends continue; records appended after the Scan starts may or may not
// be seen.
func (j *Journal) Scan(fn func(Record) error) error {
	// Appends write straight to the fd (no user-space buffering), so a
	// scan sees every record already appended by this process.
	j.mu.Lock()
	segs := append([]segmentInfo(nil), j.segments...)
	j.mu.Unlock()
	for _, seg := range segs {
		if err := scanSegmentFile(filepath.Join(j.dir, seg.Name), fn); err != nil {
			return err
		}
	}
	return nil
}

func scanSegmentFile(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	size := info.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var (
		off int64
		buf []byte
	)
	for {
		rec, n, err := readFrame(br, size-off, &buf)
		if err == io.EOF || errors.Is(err, errTorn) {
			// A torn tail mid-scan only happens when scanning a journal
			// another process is appending to; stop at the last whole
			// record.
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += int64(n)
	}
}

// Sessions decodes every session record and returns the latest session per
// URL, ordered by FeedIndex — the same order an uninterrupted in-memory
// run would have produced, so the export is byte-identical to one. A crawl
// appends one session per URL; a journal holding more (an earlier
// version's re-crawls) reads as its latest.
func (j *Journal) Sessions() ([]*crawler.SessionLog, error) {
	type slot struct {
		seq uint64
		lg  *crawler.SessionLog
	}
	latest := map[string]slot{}
	err := j.Scan(func(r Record) error {
		if r.Kind != KindSession {
			return nil
		}
		var lg crawler.SessionLog
		if err := json.Unmarshal(r.Payload, &lg); err != nil {
			return fmt.Errorf("journal: decoding session seq %d: %w", r.Seq, err)
		}
		if prev, ok := latest[lg.SeedURL]; !ok || r.Seq > prev.seq {
			latest[lg.SeedURL] = slot{seq: r.Seq, lg: &lg}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*crawler.SessionLog, 0, len(latest))
	for _, s := range latest {
		out = append(out, s.lg)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FeedIndex != out[b].FeedIndex {
			return out[a].FeedIndex < out[b].FeedIndex
		}
		return out[a].SeedURL < out[b].SeedURL
	})
	return out, nil
}

// --- small file helpers ---

func segmentName(n int) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, n, segmentSuffix)
}

func segmentNumber(name string) int {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
	if err != nil {
		return 0 // not a segment name we wrote; callers treat 0 as "before the first"
	}
	return n
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func createFileSync(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the Sync failure is the error worth reporting
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// atomicWriteFile replaces path with data: temp file in the same
// directory, fsync, rename, directory fsync. A crash leaves either the old
// file or the new one, never a truncated mix.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) } // best-effort temp removal
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the Write failure is the error worth reporting
		cleanup()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the Sync failure is the error worth reporting
		cleanup()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: syncing directory: %w", err)
	}
	return nil
}

func syncPath(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
