package sessionio

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/crawler"
)

// buffersPerDecoder is how many payload copies each decoder owns: one it
// decodes while the reader fills the others.
const buffersPerDecoder = 4

// errStopped is what emit returns once a payload has failed to decode.
var errStopped = errors.New("sessionio: an earlier session failed to decode")

// Decode decodes JSON session payloads on runtime.GOMAXPROCS(0)
// goroutines and returns the logs in the order they were emitted. It is
// the parse stage between reading a saved crawl (a JSON Lines export, a
// journal's frames) and aggregating it: produce runs on the calling
// goroutine and hands each payload to emit, with an id that names it in
// errors (a line number, a sequence number). emit copies the payload, so
// produce may reuse its buffer at once.
//
// Each payload is decoded as json.Unmarshal would into a fresh log, in one
// pass by the session decoder (see unmarshal). A payload outside the
// grammar the crawler writes (an unknown or repeated key, a wrong type,
// trailing bytes, invalid JSON) falls back to json.Unmarshal itself, so
// such input decodes, or fails, exactly as it did through encoding/json.
//
// Memory: the copies live in 4 reused buffers per decoder, and emit blocks
// while all of them are queued or being decoded, so the raw bytes in
// flight are at most 4×GOMAXPROCS payloads however long the input is.
//
// Errors: when payloads fail to decode, Decode returns wrap(id, err) for
// the first of them in emit order, whichever decoder finishes first. From
// the moment any failure is seen, emit queues nothing more and returns an
// error, which produce should return to stop early. An error produce
// returns itself is Decode's only when every payload emitted before it
// decoded. Every decoder has exited when Decode returns, also on error
// and on a panic in produce.
func Decode(produce func(emit func(id uint64, payload []byte) error) error, wrap func(id uint64, err error) error) ([]*crawler.SessionLog, error) {
	type job struct {
		i   int // emit order
		id  uint64
		buf []byte
		lg  *crawler.SessionLog
	}
	// free holds the payload buffers not in use; jobs has room for all of
	// them, so a send to it never blocks.
	n := runtime.GOMAXPROCS(0)
	jobs := make(chan job, n*buffersPerDecoder)
	free := make(chan []byte, n*buffersPerDecoder)
	for range n * buffersPerDecoder {
		free <- nil
	}

	// The first failure in emit order: its index (-1 while none), id and
	// error.
	var (
		mu       sync.Mutex
		failAt   = -1
		failID   uint64
		failErr  error
		failedBy = func(i int) bool {
			mu.Lock()
			defer mu.Unlock()
			return failAt >= 0 && failAt < i
		}
	)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				// A payload after a failure cannot change the result.
				if !failedBy(jb.i) {
					if err := unmarshal(jb.buf, jb.lg); err != nil {
						mu.Lock()
						if failAt < 0 || jb.i < failAt {
							failAt, failID, failErr = jb.i, jb.id, err
						}
						mu.Unlock()
					}
				}
				free <- jb.buf
			}
		}()
	}

	var out []*crawler.SessionLog
	emit := func(id uint64, payload []byte) error {
		if failedBy(len(out)) {
			return errStopped
		}
		buf := append((<-free)[:0], payload...)
		lg := new(crawler.SessionLog)
		jobs <- job{i: len(out), id: id, buf: buf, lg: lg}
		out = append(out, lg)
		return nil
	}
	err := func() error {
		defer func() {
			close(jobs)
			wg.Wait()
		}()
		return produce(emit)
	}()
	switch {
	case failAt >= 0:
		return nil, wrap(failID, failErr)
	case err != nil:
		return nil, err
	}
	return out, nil
}
