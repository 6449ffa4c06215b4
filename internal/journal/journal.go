// Package journal is the crash-safe crawl record store: an append-only log
// of finished crawl sessions in rolling, CRC-framed segment files. The
// paper's measurement crawl runs for 43 days; this package is what makes
// such a run survivable — every finished session is durable the moment its
// append returns, a crash (even one that tears the final record mid-write) is
// recovered on the next Open by truncating the torn tail, and the
// completed-URL set Open rebuilds lets a resumed run re-crawl only the URLs
// it never finished. The seg-*.wal files, in name order, are the whole
// journal: they only ever grow, except for tail truncation during
// recovery, and nothing else in the directory is read or written.
// ReadSessions reads them without opening a writer.
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
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/crawler"
	"repro/internal/sessionio"
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
	// runs). The run record, segment rolls and Close still sync.
	SyncNone
)

// Options tunes a journal; the zero value is production-safe.
type Options struct {
	// SegmentBytes rolls to a new segment file once the active one would
	// exceed this size (default 4 MiB).
	SegmentBytes int
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
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
	return o
}

const (
	segmentPrefix = "seg-"
	segmentSuffix = ".wal"
)

// Journal is an open crawl journal. All methods are safe for concurrent
// use; appends are serialized internally, so it can be handed directly to
// farm.Config.Sink.
type Journal struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segments   []string // segment file names in order; the last is active
	active     *os.File
	activeSize int64
	nextSeq    uint64
	completed  map[string]bool
	run        []byte // the run manifest record's payload; nil until one exists
	unsynced   int    // appends since the last fsync
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
// that interrupted a previous writer. It lists the segment files, creating
// the first only when there is none, and scans each once to rebuild the
// completed-URL set, the run record and the next sequence number. A torn
// record at the tail of the last segment is truncated away; damage
// anywhere else (a sealed segment that no longer parses) is ErrCorrupt,
// never silent loss. Files other than segments are ignored, among them
// the segment list and completed-URL cache that journals written by
// earlier versions hold beside their segments.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		segs = []string{segmentName(1)}
		if err := createFileSync(filepath.Join(dir, segs[0])); err != nil {
			return nil, err
		}
	}
	j := &Journal{dir: dir, opts: opts, segments: segs, completed: map[string]bool{}}
	var maxSeq uint64
	replay := func(rec Record) error {
		maxSeq = max(maxSeq, rec.Seq)
		switch {
		case rec.Kind == KindSession:
			if url := sessionio.SeedURL(rec.Payload); url != "" {
				j.completed[url] = true
			}
		case rec.Kind == KindRun && j.run == nil:
			j.run = bytes.Clone(rec.Payload)
		}
		return nil
	}
	for i, name := range segs {
		path := filepath.Join(dir, name)
		end, err := scanFile(path, replay)
		if errors.Is(err, errTorn) && i == len(segs)-1 {
			// Torn tail: drop the partial record, keep everything before it.
			if err := os.Truncate(path, end); err != nil {
				return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
			}
			if err := syncPath(path); err != nil {
				return nil, err
			}
		} else if err != nil {
			return nil, corrupt(name, end, err)
		}
		j.activeSize = end // the last segment's, once the loop ends
	}
	j.nextSeq = maxSeq + 1
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_WRONLY, 0)
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

// corrupt reports a scan failure at offset off of segment name: a torn
// frame there is ErrCorrupt, any other error (an I/O failure) is itself.
func corrupt(name string, off int64, err error) error {
	if errors.Is(err, errTorn) {
		return fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, name, off, err)
	}
	return err
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

// rollLocked seals the active segment and starts the next one: it
// fsyncs and closes the active file, then creates the next segment, which
// createFileSync makes durable in the directory before any frame is
// written into it. A crash in between leaves an empty last segment, which
// Open takes as the active one.
func (j *Journal) rollLocked() error {
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	j.unsynced = 0
	name := segmentName(segmentNumber(j.segments[len(j.segments)-1]) + 1)
	path := filepath.Join(j.dir, name)
	if err := createFileSync(path); err != nil {
		return err
	}
	j.segments = append(j.segments, name)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.activeSize = 0
	return nil
}

// Close stops the commit loop, which commits every append accepted before
// Close, fsyncs every frame of the active segment not yet synced (under
// either sync policy) and closes it. A poisoned journal syncs nothing
// more, and Close returns its first commit failure. Later calls return
// what the first one did.
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
	return maps.Clone(j.completed)
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
	segs := slices.Clone(j.segments)
	j.mu.Unlock()
	return scanSegments(j.dir, segs, fn)
}

// scanSegments streams the records of the named segments of dir through
// fn. A torn frame ends the scan quietly at the last segment's tail (a
// writer may be appending to it), and is ErrCorrupt anywhere else.
func scanSegments(dir string, segs []string, fn func(Record) error) error {
	for i, name := range segs {
		end, err := scanFile(filepath.Join(dir, name), fn)
		if err != nil && !(errors.Is(err, errTorn) && i == len(segs)-1) {
			return corrupt(name, end, err)
		}
	}
	return nil
}

// scanFile streams the records of one segment file through fn and returns
// the offset just past the last whole record. A frame that does not parse
// stops it with an error wrapping errTorn; the caller decides whether
// that is a torn tail or corruption.
func scanFile(path string, fn func(Record) error) (end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var buf []byte
	for {
		rec, n, err := readFrame(br, info.Size()-end, &buf)
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		if err := fn(rec); err != nil {
			return end, err
		}
		end += int64(n)
	}
}

// Sessions decodes every session record and returns the latest session per
// URL, ordered by FeedIndex — the same order an uninterrupted in-memory
// run would have produced, so the export is byte-identical to one. A crawl
// appends one session per URL; a journal holding more (an earlier
// version's re-crawls) reads as its latest. Payloads are decoded on every
// core, as readSessions describes.
func (j *Journal) Sessions() ([]*crawler.SessionLog, error) {
	j.mu.Lock()
	segs := slices.Clone(j.segments)
	j.mu.Unlock()
	return readSessions(j.dir, segs)
}

// ReadSessions reads the sessions of the journal in dir as Sessions does,
// without opening it for writing: it creates, truncates and locks nothing,
// so it may read a journal another process is still appending to, and a
// torn tail ends the read at the last whole record. A directory that holds
// no segment is refused.
func ReadSessions(dir string) ([]*crawler.SessionLog, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: %s holds no %s*%s segment", dir, segmentPrefix, segmentSuffix)
	}
	return readSessions(dir, segs)
}

// readSessions reads the frames of segs serially, with the CRC, torn-tail
// and ErrCorrupt rules of scanSegments, and decodes the session payloads on
// runtime.GOMAXPROCS(0) goroutines through sessionio.Decode: at most 4
// payloads per decoder are in flight, however long the journal. When
// payloads do not decode, the error names the first of them in journal
// order, which is the lowest Seq, since Seqs grow along the journal. The
// latest session per URL wins by Seq.
func readSessions(dir string, segs []string) ([]*crawler.SessionLog, error) {
	var seqs []uint64
	logs, err := sessionio.Decode(func(emit func(uint64, []byte) error) error {
		return scanSegments(dir, segs, func(r Record) error {
			if r.Kind != KindSession {
				return nil
			}
			seqs = append(seqs, r.Seq)
			return emit(r.Seq, r.Payload)
		})
	}, func(seq uint64, err error) error {
		return fmt.Errorf("journal: decoding session seq %d: %w", seq, err)
	})
	if err != nil {
		return nil, err
	}
	latest := make(map[string]int, len(logs))
	for i, lg := range logs {
		if prev, ok := latest[lg.SeedURL]; !ok || seqs[i] > seqs[prev] {
			latest[lg.SeedURL] = i
		}
	}
	out := make([]*crawler.SessionLog, 0, len(latest))
	for _, i := range latest {
		out = append(out, logs[i])
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
