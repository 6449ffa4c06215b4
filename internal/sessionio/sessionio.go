// Package sessionio persists crawl-session logs as JSON Lines, one session
// per line, the storage format the measurement pipeline uses between its
// crawl and analysis halves (the paper crawls for 43 days and analyzes the
// accumulated logs afterwards; this is the accumulation). Logs round-trip
// losslessly, so an analysis can be re-run — or a new analysis written —
// without re-crawling. Decode, the parse stage of every read of a saved
// crawl (Read, and the journal's), decodes sessions on every core, each in
// one pass by a decoder written for the session log's shape; a payload
// outside the grammar the crawler writes is decoded again by encoding/json,
// so its result and error text are encoding/json's.
package sessionio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/crawler"
)

// Write streams the sessions to w as JSON Lines.
func Write(w io.Writer, logs []*crawler.SessionLog) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, l := range logs {
		if l == nil {
			continue
		}
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("sessionio: encoding session %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read loads all sessions from r, decoding them on every core (see
// Decode). A line that does not decode is reported by its number: the
// first such line in the file.
func Read(r io.Reader) ([]*crawler.SessionLog, error) {
	return Decode(func(emit func(uint64, []byte) error) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
		for line := uint64(1); sc.Scan(); line++ {
			if data := sc.Bytes(); len(data) > 0 {
				if err := emit(line, data); err != nil {
					return err
				}
			}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("sessionio: reading: %w", err)
		}
		return nil
	}, func(line uint64, err error) error {
		return fmt.Errorf("sessionio: line %d: %w", line, err)
	})
}

// WriteFile writes the sessions to path crash-safely: the JSONL is
// written to a temporary file in the target directory, fsynced, and
// atomically renamed over the destination. A crash mid-write leaves
// either the previous file or the complete new one — never a truncated
// JSONL that would poison later analysis.
func WriteFile(path string, logs []*crawler.SessionLog) error {
	return atomicReplace(path, func(tmp *os.File) error {
		return Write(tmp, logs)
	})
}

// WriteRaw atomically replaces path with data, with the same
// temp+fsync+rename guarantee as WriteFile. It is the sanctioned writer
// for every non-session run artifact (reports, exports): phishvet's
// atomicwrite rule forbids direct os.WriteFile outside this package and
// the journal.
func WriteRaw(path string, data []byte) error {
	return atomicReplace(path, func(tmp *os.File) error {
		if _, err := tmp.Write(data); err != nil {
			return fmt.Errorf("sessionio: %w", err)
		}
		return nil
	})
}

// atomicReplace runs write against a temp file in path's directory, then
// fsyncs, renames over path, and fsyncs the directory so the rename
// itself is durable. Every error on that chain is checked: a silently
// dropped fsync failure would turn "durable" into "probably durable".
func atomicReplace(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sessionio: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		_ = tmp.Close()        // already failing; the close error would mask err
		_ = os.Remove(tmpName) // best-effort temp removal
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("sessionio: %w", err))
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best-effort temp removal
		return fmt.Errorf("sessionio: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName) // best-effort temp removal
		return fmt.Errorf("sessionio: %w", err)
	}
	// Make the rename itself durable.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sessionio: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // surface the sync failure, not the close
		return fmt.Errorf("sessionio: syncing directory: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("sessionio: %w", err)
	}
	return nil
}

// ReadFile loads sessions from path.
func ReadFile(path string) ([]*crawler.SessionLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sessionio: %w", err)
	}
	defer f.Close()
	return Read(f)
}
