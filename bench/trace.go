package main

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// The traced pass measures layers from outside the program: it reads the
// span trees the program already produces and it times the storage
// boundary with a wrapper of its own. Nothing here runs during the
// measured run.

// spanClass is where a stretch of a query's wall time went.
type spanClass int

const (
	// classRoot is time under the benchmark's own root span that no span
	// of the program covers: the unattributed share.
	classRoot spanClass = iota
	// classGlue is the self time of the program's structural spans
	// (select, scan <table>, join N, bloom probe ...): named, but not one
	// of the work classes below.
	classGlue
	classPlan   // plan, header and plan-probe spans with everything under them
	classScan   // per-partition select/get/fetch spans: waiting on storage
	classDecode // response decode
	classLocal  // local operators: filter, project, group-by, join, sort, top-K
	numClasses
)

// classify names a span's class from its name alone. Partition spans are
// "<verb> <table>/<object>"; the statement-level span is plain "select".
func classify(name string) spanClass {
	switch {
	case name == "plan" || strings.HasPrefix(name, "plan probe ") || strings.HasPrefix(name, "header "):
		return classPlan
	case strings.Contains(name, "/") &&
		(strings.HasPrefix(name, "select ") || strings.HasPrefix(name, "get ") || strings.HasPrefix(name, "fetch ")):
		return classScan
	case name == "decode":
		return classDecode
	}
	switch name {
	case "local", "filter", "project", "groupby", "aggregate", "hash join", "hash join local":
		return classLocal
	}
	return classGlue
}

// interval is a half-open stretch of microseconds.
type interval struct{ start, end int64 }

// unionLen is the total length the intervals cover, overlaps counted once.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// clip restricts a child's interval to its parent's.
func clip(sp, parent *obs.SpanData) interval {
	iv := interval{sp.StartUS, sp.StartUS + sp.DurUS}
	if iv.start < parent.StartUS {
		iv.start = parent.StartUS
	}
	if end := parent.StartUS + parent.DurUS; iv.end > end {
		iv.end = end
	}
	return iv
}

// selfUS is a span's self time: its duration minus the part of it that its
// children cover, where children that ran side by side (the partition
// fan-out) cover their union, not their sum.
func selfUS(sp *obs.SpanData) int64 {
	ivs := make([]interval, 0, len(sp.Children))
	for _, c := range sp.Children {
		ivs = append(ivs, clip(c, sp))
	}
	return sp.DurUS - unionLen(ivs)
}

// flatSpan is one span laid on the root's timeline.
type flatSpan struct {
	interval
	depth int
	class spanClass
}

func flatten(root *obs.SpanData) []flatSpan {
	var out []flatSpan
	var walk func(sp *obs.SpanData, depth int, inherited spanClass)
	walk = func(sp *obs.SpanData, depth int, inherited spanClass) {
		class := inherited
		if class != classPlan && depth > 0 {
			class = classify(sp.Name)
		}
		out = append(out, flatSpan{clip(sp, root), depth, class})
		for _, c := range sp.Children {
			walk(c, depth+1, class)
		}
	}
	walk(root, 0, classRoot)
	return out
}

// attribute splits the root span's wall time among the classes: each
// instant goes to the deepest span covering it (the work classes win a tie
// between spans that ran side by side), so the classes sum to the root's
// duration and classRoot receives exactly the root's self time.
func attribute(root *obs.SpanData) [numClasses]int64 {
	spans := flatten(root)
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var out [numClasses]int64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.start > a || s.end < b {
				continue
			}
			if best < 0 || s.depth > spans[best].depth ||
				(s.depth == spans[best].depth && s.class > spans[best].class) {
				best = j
			}
		}
		if best >= 0 {
			out[spans[best].class] += b - a
		}
	}
	return out
}

// spanCounts are the counts the traced pass reads off one span tree.
type spanCounts struct {
	probeSelects int
	joinSteps    map[string]int // by strategy
}

func countSpans(root *obs.SpanData) spanCounts {
	c := spanCounts{joinSteps: map[string]int{}}
	var walk func(sp *obs.SpanData, inProbe bool)
	walk = func(sp *obs.SpanData, inProbe bool) {
		if inProbe && classify(sp.Name) == classScan {
			c.probeSelects++
		}
		if strategy, ok := sp.Str("strategy"); ok && strings.HasPrefix(sp.Name, "join ") {
			c.joinSteps[strategy]++
		}
		for _, ch := range sp.Children {
			walk(ch, inProbe || strings.HasPrefix(sp.Name, "plan probe "))
		}
	}
	walk(root, false)
	return c
}

// graft hangs a copy of sub under parent with its offsets moved onto
// parent's clock (shiftUS is sub's origin minus parent's) and span ids
// drawn from nextID, so a tree stitched from several traces still gives
// every span its own lane in the Chrome view.
func graft(parent, sub *obs.SpanData, shiftUS int64, nextID *int) {
	var copyOf func(sp *obs.SpanData) *obs.SpanData
	copyOf = func(sp *obs.SpanData) *obs.SpanData {
		*nextID++
		c := &obs.SpanData{ID: *nextID, Name: sp.Name, StartUS: sp.StartUS + shiftUS, DurUS: sp.DurUS, Attrs: sp.Attrs}
		for _, ch := range sp.Children {
			c.Children = append(c.Children, copyOf(ch))
		}
		return c
	}
	parent.Children = append(parent.Children, copyOf(sub))
}

// recordedSelect is one distinct S3 Select the traced pass saw, kept so the
// select engine can be replayed on it alone afterwards.
type recordedSelect struct {
	bucket, key string
	req         selectengine.Request
}

// timedBackend wraps the storage backend of the traced pass's DB: it counts
// and times every Select and Get, sums what the select engine reports, and
// remembers each distinct Select. Where the program runs without a trace
// (tpch's baseline plans build their Exec without a context), it also
// records the call as a span under the benchmark's current root, so the
// storage boundary is on the timeline either way.
type timedBackend struct {
	s3api.Backend

	// root is the benchmark's root span of the query in flight.
	root atomic.Pointer[obs.Span]

	mu         sync.Mutex
	selects    int64
	selectBusy time.Duration
	stats      selectengine.Stats // summed over selects
	gets       int64
	getBusy    time.Duration
	getBytes   int64
	getRows    int64
	seen       map[string]bool
	recorded   []recordedSelect
}

func newTimedBackend(b s3api.Backend) *timedBackend {
	return &timedBackend{Backend: b, seen: map[string]bool{}}
}

func (t *timedBackend) ownSpan(ctx context.Context, name string) *obs.Span {
	if obs.FromContext(ctx) != nil {
		return nil
	}
	return t.root.Load().Child(name)
}

func (t *timedBackend) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	sp := t.ownSpan(ctx, "select "+key)
	t0 := time.Now()
	res, err := t.Backend.Select(ctx, bucket, key, req)
	busy := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selects++
	t.selectBusy += busy
	t.stats.BytesScanned += res.Stats.BytesScanned
	t.stats.BytesReturned += res.Stats.BytesReturned
	t.stats.RowsScanned += res.Stats.RowsScanned
	t.stats.RowsReturned += res.Stats.RowsReturned
	t.stats.CellsDecoded += res.Stats.CellsDecoded
	t.stats.DecompressBytes += res.Stats.DecompressBytes
	if id := key + "\x00" + req.SQL; !t.seen[id] && req.ScanRange == nil {
		t.seen[id] = true
		t.recorded = append(t.recorded, recordedSelect{bucket, key, req})
	}
	return res, nil
}

func (t *timedBackend) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	sp := t.ownSpan(ctx, "get "+key)
	t0 := time.Now()
	data, err := t.Backend.Get(ctx, bucket, key)
	busy := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	t.getBusy += busy
	t.getBytes += int64(len(data))
	// Rows of a CSV object, header excluded.
	if !colformat.IsColumnar(data) {
		if n := int64(bytes.Count(data, []byte{'\n'})); n > 1 {
			t.getRows += n - 1
		}
	}
	return data, nil
}
