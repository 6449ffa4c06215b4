package metrics

import "time"

// This file is the project's only sanctioned wall-clock entry point
// outside _test.go files. Crawl *output* must be a pure function of the
// feed seed, so seeded code never reads the clock; operational code that
// legitimately needs wall time — throughput accounting, report headers —
// routes through here, where phishvet's wallclock rule can see exactly
// what depends on it. phishvet exempts only this file inside
// internal/metrics, so even the rest of this package must route through
// the seam.

// now is the package's single clock read. Tests swap it via
// SetClockForTest so everything downstream of the seam — Now and
// Stopwatch — is drivable by a fake clock.
var now = time.Now

// Now returns the current wall-clock time.
func Now() time.Time { return now() }

// SetClockForTest replaces the package clock and returns a restore
// function. It exists so timing code can be tested against a
// deterministic clock; production code must never call it.
func SetClockForTest(clock func() time.Time) (restore func()) {
	prev := now
	now = clock
	return func() { now = prev }
}

// Stopwatch measures elapsed wall-clock time for operational accounting
// (farm throughput, ETA). It never feeds session output.
type Stopwatch struct{ start time.Time }

// NewStopwatch starts a stopwatch.
func NewStopwatch() Stopwatch { return Stopwatch{start: now()} }

// Elapsed returns the wall-clock time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return now().Sub(s.start) }
