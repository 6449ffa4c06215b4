package journal

import (
	"fmt"
	"os"
	"path/filepath"
)

// Compact rewrites the journal, dropping every session record that a later
// record for the same URL supersedes (re-crawls across resumed runs) while
// keeping every other record and original sequence numbers. The rewritten
// segments are numbered after the current ones and committed by a single
// atomic manifest replacement, so a crash at any point leaves either the
// old journal or the new one — an interrupted compaction's leftovers are
// swept on the next Open. Returns how many superseded records were
// dropped.
func (j *Journal) Compact() (dropped int, err error) {
	//phishvet:ignore locknoblock: compaction freezes the journal on purpose — a concurrent append into a segment being rewritten would corrupt the manifest swap
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: closed")
	}
	// The completed index already maps every URL to its latest sequence
	// number; a session record survives iff it is that record.
	keep := func(r Record) bool {
		if r.Kind != KindSession {
			return true
		}
		url := sessionURL(r.Payload)
		return url == "" || j.completed[url] == r.Seq
	}

	// Seal the active segment so the files being read are stable.
	if err := j.syncActiveLocked(); err != nil {
		return 0, err
	}
	oldSegments := j.segments
	nextNum := segmentNumber(oldSegments[len(oldSegments)-1].Name) + 1

	var (
		newSegments []segmentInfo
		out         *os.File
		outSize     int64
	)
	closeOut := func() error {
		if out == nil {
			return nil
		}
		if err := out.Sync(); err != nil {
			_ = out.Close() // the Sync failure is the error worth reporting
			return fmt.Errorf("journal: compact: %w", err)
		}
		err := out.Close()
		out = nil
		return err
	}
	openNext := func(firstSeq uint64) error {
		if err := closeOut(); err != nil {
			return err
		}
		name := segmentName(nextNum)
		nextNum++
		path := filepath.Join(j.dir, name)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		newSegments = append(newSegments, segmentInfo{Name: name, FirstSeq: firstSeq})
		out = f
		outSize = 0
		return nil
	}
	abort := func() {
		if out != nil {
			_ = out.Close() // aborting: the segment is being deleted anyway
		}
		for _, s := range newSegments {
			_ = os.Remove(filepath.Join(j.dir, s.Name)) // best-effort: aborted temporaries
		}
	}

	for _, seg := range oldSegments {
		err := scanSegmentFile(filepath.Join(j.dir, seg.Name), func(r Record) error {
			if !keep(r) {
				dropped++
				return nil
			}
			frame := encodeFrame(r)
			if out == nil || (outSize > 0 && outSize+int64(len(frame)) > int64(j.opts.SegmentBytes)) {
				if err := openNext(r.Seq); err != nil {
					return err
				}
			}
			if _, err := out.Write(frame); err != nil {
				return fmt.Errorf("journal: compact: %w", err)
			}
			outSize += int64(len(frame))
			return nil
		})
		if err != nil {
			abort()
			return 0, err
		}
	}
	// Even an all-dropped (or empty) journal needs one segment to stay
	// appendable.
	if out == nil {
		if err := openNext(j.nextSeq); err != nil {
			abort()
			return 0, err
		}
	}
	lastSize := outSize
	if err := closeOut(); err != nil {
		abort()
		return 0, err
	}
	if err := syncDir(j.dir); err != nil {
		abort()
		return 0, err
	}

	// Commit: swap the manifest, then retire the old files and writer
	// state. From here on the new segments are the journal.
	j.segments = newSegments
	if err := j.writeManifest(); err != nil {
		j.segments = oldSegments
		abort()
		return 0, err
	}
	oldActive := j.active
	last := newSegments[len(newSegments)-1]
	f, err := os.OpenFile(filepath.Join(j.dir, last.Name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return dropped, fmt.Errorf("journal: compact: reopening active segment: %w", err)
	}
	j.active = f
	j.activeSize = lastSize
	j.unsynced = 0
	_ = oldActive.Close() // superseded handle; its segment file is deleted below
	for _, s := range oldSegments {
		// Best-effort: the manifest no longer references these, so a
		// leftover file is dead weight, not a correctness problem.
		_ = os.Remove(filepath.Join(j.dir, s.Name))
	}
	return dropped, nil
}
