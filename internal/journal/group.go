// Group commit: the journal's one write path. Appenders marshal their
// payloads in their own goroutines, enqueue, and block; a background
// commit loop drains everything queued while the previous fsync was in
// flight, writes the batch frame by frame, fsyncs once, and only then
// releases every waiter. When AppendSession returns nil under SyncAlways
// the record is durable, while a 30-worker farm pays ~1/30th of the
// fsyncs. A crash can only lose records whose appends had not yet
// returned (at most one per concurrent appender), and a resumed run
// re-crawls exactly those URLs.

package journal

import "fmt"

// groupReq is one record waiting on a group commit.
type groupReq struct {
	kind    Kind
	payload []byte
	url     string // a session's SeedURL; empty for the run record
	done    chan error
}

// commitLoop is the background committer, started by Open and stopped by
// Close. Once Close has set stopping and the queue is drained, it closes
// the journal, so every append accepted before Close is still committed.
func (j *Journal) commitLoop() {
	for {
		//phishvet:ignore locknoblock: group commit by design — the batch write+fsync happens under j.mu so appenders queue behind exactly one fsync
		j.mu.Lock()
		for len(j.pending) == 0 && !j.stopping {
			j.groupCond.Wait()
		}
		if len(j.pending) == 0 {
			j.closeErr = j.closeLocked()
			j.mu.Unlock()
			close(j.loopDone)
			return
		}
		batch := j.pending
		j.pending = nil
		err := j.commitBatchLocked(batch)
		j.mu.Unlock()
		for _, r := range batch {
			r.done <- err
		}
	}
}

// commitBatchLocked writes the batch in arrival order, one frame per write
// with segment rolls in between where needed, then makes it durable with a
// single fsync before exposing any of its URLs as completed. Under
// SyncNone only a batch holding the run record is synced. It is the only
// writer of record frames. Its first failure poisons the journal: that
// batch and every later append, BindRun and Close return the error, so
// nothing is acknowledged after a partial frame. Whatever of a failed
// batch reached the disk is deduplicated at read time by sequence number.
func (j *Journal) commitBatchLocked(batch []*groupReq) (err error) {
	if j.err != nil {
		return j.err
	}
	defer func() {
		if err != nil {
			j.err = err
		}
	}()
	durable := j.opts.Sync == SyncAlways
	for _, r := range batch {
		frame := encodeFrame(Record{Seq: j.nextSeq, Kind: r.kind, Payload: r.payload})
		if j.activeSize > 0 && j.activeSize+int64(len(frame)) > int64(j.opts.SegmentBytes) {
			if err := j.rollLocked(); err != nil {
				return err
			}
		}
		if _, err := j.active.Write(frame); err != nil {
			return fmt.Errorf("journal: append: %w", err)
		}
		j.activeSize += int64(len(frame))
		j.unsynced++
		j.nextSeq++
		if r.kind == KindRun {
			durable = true
		} else if j.opts.AfterSession != nil {
			j.opts.AfterSession()
		}
	}
	if durable {
		if err := j.syncActiveLocked(); err != nil {
			return err
		}
	}
	// The batch is durable: expose its completions.
	for _, r := range batch {
		if r.url != "" {
			j.completed[r.url] = true
		}
	}
	return nil
}

// closeLocked ends the journal for the commit loop: a final fsync of the
// active segment, unless a commit failed, then the segment's close.
func (j *Journal) closeLocked() error {
	err := j.err
	if err == nil {
		err = j.syncActiveLocked()
	}
	if cerr := j.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	return err
}
