// Group commit: the SyncGroup policy batches concurrent appends so a whole
// burst of finished sessions reaches stable storage with a single fsync.
//
// Appenders marshal their payloads in their own goroutines, enqueue, and
// block; a background commit loop drains everything queued while the
// previous fsync was in flight, writes the batch with one write call,
// fsyncs once, and only then releases every waiter. Each caller therefore
// keeps the SyncAlways guarantee — when AppendSession returns nil, the
// record is durable — while a 30-worker farm pays ~1/30th of the fsyncs.
// A crash can only lose records whose appends had not yet returned (at
// most one per concurrent appender), and a resumed run re-crawls exactly
// those URLs.

package journal

import "fmt"

// groupReq is one append waiting on a group commit.
type groupReq struct {
	payload []byte // a session record's payload
	url     string // the session's SeedURL
	seq     uint64 // assigned during commit
	done    chan error
}

// appendGroup enqueues one session record for the commit loop and blocks
// until the batch containing it is durable (or failed as a whole).
func (j *Journal) appendGroup(payload []byte, url string) error {
	if len(payload) > MaxRecordBytes-bodyMinSize {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", len(payload))
	}
	req := &groupReq{payload: payload, url: url, done: make(chan error, 1)}
	j.mu.Lock()
	if j.closed || j.stopping {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	j.pending = append(j.pending, req)
	j.groupCond.Signal()
	j.mu.Unlock()
	return <-req.done
}

// commitLoop is the background committer, started by Open under SyncGroup
// and stopped by Close. It exits only once the queue is drained, so every
// append accepted before Close set stopping is still committed.
func (j *Journal) commitLoop() {
	for {
		//phishvet:ignore locknoblock: group commit by design — the batch write+fsync happens under j.mu so appenders queue behind exactly one fsync
		j.mu.Lock()
		for len(j.pending) == 0 && !j.stopping {
			j.groupCond.Wait()
		}
		if len(j.pending) == 0 {
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

// flushPendingLocked commits any queued appends in the caller's goroutine
// (Sync and Close use it; the commit loop tolerates waking to an already
// drained queue). The waiters are released before returning.
func (j *Journal) flushPendingLocked() error {
	if len(j.pending) == 0 {
		return nil
	}
	batch := j.pending
	j.pending = nil
	err := j.commitBatchLocked(batch)
	for _, r := range batch {
		r.done <- err
	}
	return err
}

// commitBatchLocked writes the batch in arrival order — one frame-packed
// write per segment stretch, segment rolls in between where needed — then
// makes it durable with a single fsync before exposing any of its URLs as
// completed. A write or fsync failure fails the whole batch: none of its
// records are marked completed (whatever reached the disk is deduplicated
// at read time by sequence number), and every waiter sees the error, which
// stops the run.
func (j *Journal) commitBatchLocked(batch []*groupReq) error {
	buf := j.groupBuf[:0]
	defer func() { j.groupBuf = buf[:0] }()
	frames := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := j.active.Write(buf); err != nil {
			return fmt.Errorf("journal: append: %w", err)
		}
		j.activeSize += int64(len(buf))
		j.unsynced += frames
		buf, frames = buf[:0], 0
		return nil
	}
	for _, r := range batch {
		frame := encodeFrame(Record{Seq: j.nextSeq, Kind: KindSession, Payload: r.payload})
		if pos := j.activeSize + int64(len(buf)); pos > 0 && pos+int64(len(frame)) > int64(j.opts.SegmentBytes) {
			if err := flush(); err != nil {
				return err
			}
			if err := j.rollLocked(); err != nil {
				return err
			}
		}
		r.seq = j.nextSeq
		j.nextSeq++
		buf = append(buf, frame...)
		frames++
	}
	if err := flush(); err != nil {
		return err
	}
	if err := j.syncActiveLocked(); err != nil {
		return err
	}
	// The batch is durable: expose completions and advance the checkpoint
	// cadence.
	for _, r := range batch {
		if r.url != "" {
			j.completed[r.url] = r.seq
			j.dirtyCkpt++
		}
	}
	if j.dirtyCkpt >= j.opts.CheckpointEvery {
		return j.writeCheckpointLocked()
	}
	return nil
}
