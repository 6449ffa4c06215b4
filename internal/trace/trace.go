// Package trace records what one crawl session actually did, as a tree of
// timed spans: the session, each page it visited, and each instrumented
// stage (render, ocr, detect, submit) on that page. The collector is the
// telemetry layer the ROADMAP's production-scale crawl needs — the paper's
// run covered 51,859 URLs over weeks, and auditing a run of that size
// means being able to replay any single session's timeline.
//
// Spans are measured on a deterministic session-logical clock, NOT the
// wall clock. The clock starts at the Unix epoch and advances one logical
// millisecond per observable event (every timestamped browser log entry,
// every span boundary) plus a work-proportional cost the crawler charges
// per stage (DOM nodes rendered, fields OCR'd, detections scored). Two
// crawls of the same seed therefore produce byte-identical traces, traces
// survive journal kill/resume unchanged, and stage-latency percentiles
// derived from them are identical across any worker count — none of which
// a wall-clock trace can promise. Wall time stays behind the
// internal/metrics seam; phishvet's wallclock rule keeps it out of here.
//
// The collector is allocation-free on the hot path once its span slab has
// grown (spans live in one flat slice linked by parent indices), so
// tracing every session of a production crawl costs a few appends per
// page.
package trace

import "time"

// Kind classifies a span.
type Kind string

// Span kinds, outermost first. The hierarchy is fixed:
// session → page → stage.
const (
	KindSession Kind = "session"
	KindPage    Kind = "page"
	KindStage   Kind = "stage"
)

// Span is one timed node of the session tree. Start and End are offsets
// on the session-logical clock from the session's origin (the Unix
// epoch); Parent is the index of the enclosing span in the flat slice
// (-1 for the root). The flat parent-linked layout is what the journal
// stores and what keeps collection allocation-free.
type Span struct {
	Kind   Kind          `json:"kind"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// Duration is the span's logical duration.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// initialSpanCap covers a full DefaultMaxPages session (1 session + 10
// pages + ~5 stages per page) without regrowing the slab.
const initialSpanCap = 64

// Session collects one session's spans and owns its logical clock. It is
// not safe for concurrent use — a session is driven by one worker — and a
// nil *Session is a valid no-op collector, so instrumented code needs no
// guards.
type Session struct {
	spans []Span
	stack []int // indices of open spans, innermost last
	now   time.Duration
}

// NewSession returns a collector with a pre-grown span slab.
func NewSession() *Session {
	return &Session{
		spans: make([]Span, 0, initialSpanCap),
		stack: make([]int, 0, 8),
	}
}

// Reset rewinds the collector for a new session, keeping the grown span
// slab. A reset session is indistinguishable from a new one: empty span
// list, empty stack, clock back at the origin. Callers recycling a session
// must have copied the previous Spans() result out first — Reset reuses
// that storage.
func (s *Session) Reset() {
	if s == nil {
		return
	}
	s.spans = s.spans[:0]
	s.stack = s.stack[:0]
	s.now = 0
}

// Clock returns the session-logical timestamp source, for sharing with the
// browser: every call advances the clock one logical millisecond and
// returns the epoch-based time, so browser log timestamps and span
// boundaries interleave on one deterministic timeline. A nil session
// returns nil (callers keep their default clock).
func (s *Session) Clock() func() time.Time {
	if s == nil {
		return nil
	}
	return func() time.Time {
		s.now += time.Millisecond
		return time.Unix(0, int64(s.now)).UTC()
	}
}

// Advance charges n logical milliseconds of work to the open span — the
// crawler calls it with work-proportional costs (DOM nodes rendered,
// detections scored, label glyphs OCR'd) so span durations, and the
// latency percentiles derived from them, reflect relative stage cost
// while staying a pure function of the session's content.
func (s *Session) Advance(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.now += time.Duration(n) * time.Millisecond
}

// Begin opens a span and returns its index for End. Opening a span
// advances the clock one tick, so zero-work spans still have non-zero
// extent. A nil session returns -1.
func (s *Session) Begin(kind Kind, name string) int {
	if s == nil {
		return -1
	}
	s.now += time.Millisecond
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	s.spans = append(s.spans, Span{Kind: kind, Name: name, Parent: parent, Start: s.now})
	id := len(s.spans) - 1
	s.stack = append(s.stack, id)
	return id
}

// End closes the span returned by Begin (and any still-open spans nested
// inside it), advancing the clock one tick, and returns the span's logical
// duration. Out-of-range ids (including Begin's nil-session -1) are
// no-ops.
func (s *Session) End(id int) time.Duration {
	if s == nil || id < 0 || id >= len(s.spans) || s.spans[id].End != 0 {
		return 0
	}
	s.now += time.Millisecond
	for i := len(s.stack) - 1; i >= 0; i-- {
		open := s.stack[i]
		s.stack = s.stack[:i]
		if s.spans[open].End == 0 {
			s.spans[open].End = s.now
		}
		if open == id {
			break
		}
	}
	return s.spans[id].Duration()
}

// Spans returns the collected spans in Begin order, closing any spans
// still open (a session aborted by an error leaves its root open; the
// exported trace is still well-formed). The returned slice is the
// collector's own slab; callers must be done collecting.
func (s *Session) Spans() []Span {
	if s == nil {
		return nil
	}
	for len(s.stack) > 0 {
		s.End(s.stack[len(s.stack)-1])
	}
	return s.spans
}
