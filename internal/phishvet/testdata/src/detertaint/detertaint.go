// Package detertaint exercises the interprocedural taint rule:
// nondeterminism read through the sanctioned metrics seam (or any other
// source) must not reach a journal sink, however many function
// boundaries the value crosses on the way.
package detertaint

import (
	"math/rand"
	"time"

	"repro/internal/phishvet/testdata/src/detertaint/internal/journal"
	"repro/internal/phishvet/testdata/src/detertaint/internal/metrics"
	"repro/internal/phishvet/testdata/src/detertaint/stamper"
)

// The laundered cross-package flow wallclock cannot see: stamper.Stamp
// reads the seam clock, and the tainted bytes land in the journal here.
func flagged(j *journal.Journal) error {
	return j.AppendNote(stamper.Stamp()) // want "nondeterministic value .* reaches journal.AppendNote: journaled/exported bytes must be a pure function of the feed seed"
}

// record sinks its payload argument; the summary records param→sink so
// callers are charged, not this helper.
func record(j *journal.Journal, payload []byte) error {
	return j.AppendNote(payload)
}

// The taint enters here and flows through record's parameter summary.
func flaggedViaHelper(j *journal.Journal) error {
	sw := metrics.NewStopwatch()
	d := sw.Elapsed()
	return record(j, []byte(d.String())) // want "nondeterministic value .* reaches journal.AppendNote through detertaint.record"
}

type run struct {
	Elapsed time.Duration
	Logs    []byte
}

// Field sensitivity: tainting r.Elapsed must not condemn r.Logs.
func fieldPrecise(j *journal.Journal, sw metrics.Stopwatch) error {
	var r run
	r.Elapsed = sw.Elapsed()
	if err := j.AppendNote([]byte(r.Elapsed.String())); err != nil { // want "nondeterministic value .* reaches journal.AppendNote"
		return err
	}
	return j.AppendNote(r.Logs) // the sibling field is untainted: clean
}

// Seed-derived bytes are deterministic: clean.
func clean(j *journal.Journal, seed int64) error {
	return j.AppendNote([]byte{byte(seed)})
}

// A seeded generator's draws are seed-derived too: clean. Only the
// package-level math/rand functions read the process-global source.
func cleanSeededRand(j *journal.Journal, seed int64) error {
	var r run
	r.Logs = []byte{byte(rand.New(rand.NewSource(seed)).Intn(256))}
	return j.AppendNote(encode(r))
}

// encode serializes a run whole; its summary charges the caller for any
// taint in the value passed.
func encode(r run) []byte {
	return append([]byte(r.Elapsed.String()), r.Logs...)
}

// Whole-value reads: reading r whole carries the taint of the field stored
// into it, while a read of the sibling field stays clean.
func flaggedWholeValue(j *journal.Journal, sw metrics.Stopwatch) error {
	var r run
	r.Elapsed = sw.Elapsed()
	if err := j.AppendNote(r.Logs); err != nil { // the sibling field is untainted: clean
		return err
	}
	return j.AppendNote(encode(r)) // want "nondeterministic value .* reaches journal.AppendNote"
}

// stamped builds its result by a field store and returns it whole.
func stamped(sw metrics.Stopwatch) run {
	var s run
	s.Elapsed = sw.Elapsed()
	return s
}

// The returned value keeps the taint of its stored field.
func flaggedReturnedWhole(j *journal.Journal, sw metrics.Stopwatch) error {
	return j.AppendNote(encode(stamped(sw))) // want "nondeterministic value .* reaches journal.AppendNote"
}
