// Package obs is PushdownDB's zero-dependency observability layer: query
// traces (hierarchical spans carrying wall-clock, row/byte counts and the
// matching cloudsim phase cost) and a hand-rolled Prometheus-style metrics
// registry. The engine starts spans at its existing phase boundaries via a
// context-carried *Trace; when no trace is attached every span operation
// is a nil-receiver no-op, so the off-state costs one pointer check per
// call site and allocates nothing.
//
// Concurrency: one mutex per Trace guards the whole span tree, so spans
// may be started, annotated and ended from concurrent partition fan-outs.
// Snapshot returns an immutable copy safe to retain, serve and render
// after the query's goroutines are gone.
package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one query's span tree. Create with New, attach to a context
// with WithTrace, recover with FromContext (nil when absent — all methods
// on a nil *Trace and nil *Span are no-ops).
type Trace struct {
	id string

	mu   sync.Mutex
	seq  int
	root *Span
}

// New starts a trace whose root span is named rootName and begins now.
func New(id, rootName string) *Trace {
	t := &Trace{id: id}
	t.root = &Span{tr: t, id: t.nextIDLocked(), name: rootName, start: time.Now()}
	return t
}

// ID returns the trace's identifier (the server uses the request id).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span; nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (idempotent: an already-ended root keeps its
// end time).
func (t *Trace) Finish() { t.Root().End() }

// nextIDLocked allocates the next span id. New calls it before the trace
// escapes; all other callers hold t.mu.
func (t *Trace) nextIDLocked() int {
	t.seq++
	return t.seq
}

// Span is one timed node of the trace: a name, wall-clock bounds, ordered
// attributes (row/byte counts, cache and share outcomes, phase cost) and
// children. All methods are nil-receiver safe.
type Span struct {
	tr       *Trace
	id       int
	parent   int
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute. Val is an int64, float64 or string, or a
// func() float64 that Snapshot evaluates (SetFloatFunc).
type Attr struct {
	Key string
	Val any
}

// Child starts a sub-span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{tr: t, id: t.nextIDLocked(), parent: s.id, name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// End stamps the span's end time. Idempotent; unended spans snapshot as
// still running (their duration is measured to the snapshot instant).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// EndErr ends the span, recording a non-nil err as its "error" attribute.
func (s *Span) EndErr(err error) {
	if s != nil && err != nil {
		s.SetStr("error", err.Error())
	}
	s.End()
}

// setAttr sets (replacing) the attribute under t.mu. It takes the value
// unboxed, so on a nil span nothing is boxed and nothing allocated.
func setAttr[T any](s *Span, key string, v T) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// SetInt sets an integer attribute (rows, bytes, partition counts).
func (s *Span) SetInt(key string, v int64) { setAttr(s, key, v) }

// SetFloat sets a float attribute (phase seconds, dollar cost).
func (s *Span) SetFloat(key string, v float64) { setAttr(s, key, v) }

// SetStr sets a string attribute (cache/share outcome, strategy, sql).
func (s *Span) SetStr(key, v string) { setAttr(s, key, v) }

// SetFloatFunc sets a float attribute read from f when the trace is
// snapshotted, so a figure still accumulating after the span ends (its
// phase's seconds and dollars) is read final. f must not touch the trace.
func (s *Span) SetFloatFunc(key string, f func() float64) { setAttr(s, key, f) }

// AddInt accumulates onto an integer attribute, creating it at v. Safe
// under concurrent partition fan-outs (trace-mutex serialized).
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if cur, ok := s.attrs[i].Val.(int64); ok {
				s.attrs[i].Val = cur + v
				return
			}
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// ctxKey carries a *Trace through a context.
type ctxKey struct{}

// WithTrace attaches a trace to the context; the engine's Exec picks it
// up in NewExecContext. Attaching nil returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext recovers the attached trace, nil when none is attached —
// the nil then propagates through every span helper as a no-op.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
