package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanData is the immutable snapshot of one span: offsets are microseconds
// relative to the trace's root start, so snapshots serialize compactly and
// render directly as Chrome tracing events.
type SpanData struct {
	ID      int            `json:"id"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	// attrOrder preserves insertion order for the text renderer (JSON maps
	// marshal key-sorted either way).
	attrOrder []string
	Children  []*SpanData `json:"children,omitempty"`
}

// TraceData is the immutable snapshot of a whole trace, safe to retain
// after the traced query's goroutines are gone.
type TraceData struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	Root  *SpanData `json:"root"`
}

// Snapshot copies the trace into an immutable TraceData. Spans not yet
// ended are measured to the snapshot instant.
func (t *Trace) Snapshot() *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	origin := t.root.start
	return &TraceData{ID: t.id, Start: origin, Root: snapshotSpan(t.root, origin, now)}
}

func snapshotSpan(s *Span, origin, now time.Time) *SpanData {
	end := s.end
	if end.IsZero() {
		end = now
	}
	d := &SpanData{
		ID:      s.id,
		Name:    s.name,
		StartUS: s.start.Sub(origin).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if f, ok := a.Val.(func() float64); ok {
				a.Val = f()
			}
			d.Attrs[a.Key] = a.Val
			d.attrOrder = append(d.attrOrder, a.Key)
		}
	}
	for _, c := range s.children {
		d.Children = append(d.Children, snapshotSpan(c, origin, now))
	}
	return d
}

// JSON renders the snapshot as indented JSON (the /debug/trace default).
func (d *TraceData) JSON() []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}

// chromeEvent is one complete ("ph":"X") event of the Chrome tracing JSON
// array format (chrome://tracing and Perfetto both load it). Each span
// gets its own tid lane so concurrent partition spans render side by side.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the snapshot in the Chrome tracing event-array
// format: save it as a .json file and load it in chrome://tracing.
func (d *TraceData) ChromeTrace() []byte {
	var events []chromeEvent
	var walk func(sp *SpanData)
	walk = func(sp *SpanData) {
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: "query", Ph: "X",
			TS: sp.StartUS, Dur: sp.DurUS,
			PID: 1, TID: sp.ID, Args: sp.Attrs,
		})
		for _, c := range sp.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
	b, err := json.Marshal(events)
	if err != nil {
		return []byte("[]")
	}
	return append(b, '\n')
}

// Tree renders the snapshot as an indented text tree, one span per line
// with its wall duration and attributes, in creation order.
func (d *TraceData) Tree() string {
	var b strings.Builder
	var walk func(sp *SpanData, depth int)
	walk = func(sp *SpanData, depth int) {
		fmt.Fprintf(&b, "%s%s %s", strings.Repeat("  ", depth), sp.Name, fmtDur(sp.DurUS))
		for _, k := range sp.attrOrder {
			fmt.Fprintf(&b, " %s=%v", k, sp.Attrs[k])
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	if d.Root != nil {
		walk(d.Root, 0)
	}
	return b.String()
}

func fmtDur(us int64) string {
	return fmt.Sprintf("%.3fms", float64(us)/1000)
}

// Find returns the first span (depth-first, creation order) whose name
// matches, nil when absent. Test helper-grade convenience.
func (d *TraceData) Find(name string) *SpanData {
	if d == nil || d.Root == nil {
		return nil
	}
	return d.Root.Find(name)
}

// Find returns sp itself or its first descendant named name.
func (sp *SpanData) Find(name string) *SpanData {
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every descendant (including sp) named name, depth-first.
func (sp *SpanData) FindAll(name string) []*SpanData {
	var out []*SpanData
	if sp.Name == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, c.FindAll(name)...)
	}
	return out
}

// Walk visits every span depth-first in creation order.
func (d *TraceData) Walk(fn func(sp *SpanData, depth int)) {
	if d == nil || d.Root == nil {
		return
	}
	var walk func(sp *SpanData, depth int)
	walk = func(sp *SpanData, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
}

// Int returns the span's integer attribute (0, false when absent).
func (sp *SpanData) Int(key string) (int64, bool) {
	v, ok := sp.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case int64:
		return n, true
	case float64: // a JSON round trip turns numbers into float64
		return int64(n), true
	}
	return 0, false
}

// Float returns the span's float attribute (0, false when absent).
func (sp *SpanData) Float(key string) (float64, bool) {
	v, ok := sp.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	}
	return 0, false
}

// Str returns the span's string attribute ("", false when absent).
func (sp *SpanData) Str(key string) (string, bool) {
	s, ok := sp.Attrs[key].(string)
	return s, ok
}

// SortChildren orders children (recursively) by name then id — a
// deterministic view for golden renders over concurrent fan-outs.
func (sp *SpanData) SortChildren() {
	sort.SliceStable(sp.Children, func(i, j int) bool {
		if sp.Children[i].Name != sp.Children[j].Name {
			return sp.Children[i].Name < sp.Children[j].Name
		}
		return sp.Children[i].ID < sp.Children[j].ID
	})
	for _, c := range sp.Children {
		c.SortChildren()
	}
}
