package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry is a hand-rolled Prometheus-style metrics registry: counters
// and histograms accumulate in-process, gauges are collected at scrape
// time from their source of truth, and WritePrometheus renders everything
// in the Prometheus text exposition format. No dependency on any client
// library — the format is five line shapes.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*gauge
	hists    []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// labelSep joins label values into a series key; 0xff cannot appear in
// UTF-8 text, so distinct value tuples never collide.
const labelSep = "\xff"

// series is one labeled sample line of a counter.
type series struct {
	labelVals []string
	value     float64
}

// Counter is a monotonically increasing metric family with fixed label
// names; each distinct label-value tuple is its own series.
type Counter struct {
	name, help string
	labels     []string

	mu   sync.Mutex
	vals map[string]*series
}

// Counter registers (and returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{name: name, help: help, labels: labels, vals: map[string]*series{}}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// Add increases the series selected by labelVals (one value per label
// name, in registration order) by v. Negative v is ignored — counters
// only go up.
func (c *Counter) Add(v float64, labelVals ...string) {
	if v < 0 || len(labelVals) != len(c.labels) {
		return
	}
	key := strings.Join(labelVals, labelSep)
	c.mu.Lock()
	s := c.vals[key]
	if s == nil {
		s = &series{labelVals: append([]string{}, labelVals...)}
		c.vals[key] = s
	}
	s.value += v
	c.mu.Unlock()
}

// Inc is Add(1).
func (c *Counter) Inc(labelVals ...string) { c.Add(1, labelVals...) }

// Value returns the current value of one series (0 when absent).
func (c *Counter) Value(labelVals ...string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.vals[strings.Join(labelVals, labelSep)]; s != nil {
		return s.value
	}
	return 0
}

// Sample is one gauge reading produced by a collect callback.
type Sample struct {
	Labels []string // one value per label name; empty for unlabeled gauges
	Value  float64
}

// gauge is a scrape-time-collected metric family.
type gauge struct {
	name, help string
	labels     []string
	collect    func() []Sample
}

// Gauge registers a gauge family collected at scrape time: collect
// returns the current samples straight from the source of truth (queue
// depths, cache occupancy), so the gauge can never drift from it.
func (r *Registry) Gauge(name, help string, labels []string, collect func() []Sample) {
	r.mu.Lock()
	r.gauges = append(r.gauges, &gauge{name: name, help: help, labels: labels, collect: collect})
	r.mu.Unlock()
}

// GaugeFunc registers an unlabeled single-sample gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.Gauge(name, help, nil, func() []Sample { return []Sample{{Value: fn()}} })
}

// histSeries is one labeled histogram: cumulative bucket counts plus
// sum/count, the Prometheus histogram layout.
type histSeries struct {
	labelVals []string
	counts    []uint64 // per bucket, non-cumulative; rendered cumulative
	sum       float64
	count     uint64
}

// Histogram is a histogram family with fixed, sorted upper bounds.
type Histogram struct {
	name, help string
	labels     []string
	buckets    []float64

	mu   sync.Mutex
	vals map[string]*histSeries
}

// DefBuckets covers query latencies from 1 ms to ~4 minutes.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 250}

// Histogram registers a histogram family. A nil buckets uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	sorted := append([]float64{}, buckets...)
	sort.Float64s(sorted)
	h := &Histogram{name: name, help: help, labels: labels, buckets: sorted, vals: map[string]*histSeries{}}
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// Observe records one value into the series selected by labelVals.
func (h *Histogram) Observe(v float64, labelVals ...string) {
	if len(labelVals) != len(h.labels) {
		return
	}
	key := strings.Join(labelVals, labelSep)
	h.mu.Lock()
	s := h.vals[key]
	if s == nil {
		s = &histSeries{labelVals: append([]string{}, labelVals...), counts: make([]uint64, len(h.buckets))}
		h.vals[key] = s
	}
	for i, ub := range h.buckets {
		if v <= ub {
			s.counts[i]++
			break
		}
	}
	s.sum += v
	s.count++
	h.mu.Unlock()
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families and series in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	counters := append([]*Counter{}, r.counters...)
	gauges := append([]*gauge{}, r.gauges...)
	hists := append([]*Histogram{}, r.hists...)
	r.mu.Unlock()

	for _, c := range counters {
		header(w, c.name, c.help, "counter")
		c.mu.Lock()
		for _, s := range sortedSeries(c.vals) {
			fmt.Fprintf(w, "%s%s %s\n", c.name, labelString(c.labels, s.labelVals), fmtVal(s.value))
		}
		c.mu.Unlock()
	}
	for _, g := range gauges {
		typ := "gauge"
		if strings.HasSuffix(g.name, "_total") {
			typ = "counter" // a running total read from its owner (the Go runtime's)
		}
		header(w, g.name, g.help, typ)
		samples := g.collect()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].Labels, labelSep) < strings.Join(samples[j].Labels, labelSep)
		})
		for _, s := range samples {
			fmt.Fprintf(w, "%s%s %s\n", g.name, labelString(g.labels, s.Labels), fmtVal(s.Value))
		}
	}
	for _, h := range hists {
		header(w, h.name, h.help, "histogram")
		h.mu.Lock()
		for _, s := range sortedHistSeries(h.vals) {
			var cum uint64
			for i, ub := range h.buckets {
				cum += s.counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", h.name,
					labelString(append(h.labels, "le"), append(s.labelVals, fmtVal(ub))), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.name,
				labelString(append(h.labels, "le"), append(s.labelVals, "+Inf")), s.count)
			fmt.Fprintf(w, "%s_sum%s %s\n", h.name, labelString(h.labels, s.labelVals), fmtVal(s.sum))
			fmt.Fprintf(w, "%s_count%s %d\n", h.name, labelString(h.labels, s.labelVals), s.count)
		}
		h.mu.Unlock()
	}
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func sortedSeries(m map[string]*series) []*series {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func sortedHistSeries(m map[string]*histSeries) []*histSeries {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*histSeries, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// labelString renders {a="x",b="y"}; "" with no labels.
func labelString(names, vals []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(vals) {
			v = vals[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes per the exposition format: backslash, quote, newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// fmtVal renders a sample value the way Prometheus expects: integral
// values without an exponent, everything else in shortest 'g' form.
func fmtVal(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
