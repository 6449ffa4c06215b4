package metrics

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for driving the metrics seam.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestSetClockForTestRestores pins the restore contract: after the
// returned func runs, Now() reads the real clock again.
func TestSetClockForTestRestores(t *testing.T) {
	frozen := time.Unix(42, 0)
	restore := SetClockForTest(func() time.Time { return frozen })
	if !Now().Equal(frozen) {
		t.Fatal("Now() did not follow the injected clock")
	}
	restore()
	if Now().Equal(frozen) {
		t.Fatal("restore() did not reinstate the real clock")
	}
}

// TestStopwatchUsesClockSeam: Stopwatch start and Elapsed both read the
// package clock, so elapsed time is exactly the fake clock's advance.
func TestStopwatchUsesClockSeam(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	defer SetClockForTest(clk.now)()
	sw := NewStopwatch()
	clk.advance(7 * time.Second)
	if e := sw.Elapsed(); e != 7*time.Second {
		t.Fatalf("Elapsed() = %v, want exactly 7s", e)
	}
}
